package accounting

import (
	"errors"
	"fmt"
	"testing"
)

// fakeJournal records appends and scripted failures, standing in for
// the WAL in ledger-level tests.
type fakeJournal struct {
	appends []Entry
	applied []uint64
	fail    error
	seq     uint64
}

func (j *fakeJournal) Append(session string, e Entry) (uint64, error) {
	if j.fail != nil {
		return 0, j.fail
	}
	j.seq++
	j.appends = append(j.appends, e)
	return j.seq, nil
}

func (j *fakeJournal) Applied(seq uint64) { j.applied = append(j.applied, seq) }

// TestCeilingRefusesOverBudget: charges under the ceiling pass, the
// first charge that would breach it is refused with
// ErrCeilingExceeded and leaves no trace, and exact-hit charges are
// allowed (the ceiling is an inclusive bound).
func TestCeilingRefusesOverBudget(t *testing.T) {
	l := NewLedger(1e-5)
	if err := l.SetCeiling(2.5, 1e-5); err != nil {
		t.Fatal(err)
	}
	// Two pure ε=1 releases: linear bound 2 ≤ 2.5.
	for i := 0; i < 2; i++ {
		if err := l.AddPure("mqm-exact", 1); err != nil {
			t.Fatalf("release %d under ceiling refused: %v", i, err)
		}
	}
	// The third would reach linear 3 (and the RDP curve is above 2.5
	// too at this δ): refused, nothing recorded.
	err := l.AddPure("mqm-exact", 1)
	if !errors.Is(err, ErrCeilingExceeded) {
		t.Fatalf("over-ceiling charge: %v", err)
	}
	if l.Count() != 2 {
		t.Fatalf("refused charge mutated the ledger: %d entries", l.Count())
	}
	if got := l.State().Epsilon; got > 2.5 {
		t.Fatalf("ledger over its own ceiling: ε = %v", got)
	}

	// Exactly hitting the ceiling is allowed: fresh ledger, ceiling 2.
	l2 := NewLedger(1e-5)
	if err := l2.SetCeiling(2, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l2.AddPure("", 1); err != nil {
		t.Fatal(err)
	}
	if err := l2.AddPure("", 1); err != nil {
		t.Fatalf("exact-ceiling charge refused: %v", err)
	}
	if err := l2.AddPure("", 1); !errors.Is(err, ErrCeilingExceeded) {
		t.Fatalf("past-exact charge: %v", err)
	}
}

// TestCheckChargeSimulation: CheckCharge answers exactly as Add would,
// without mutating; multi-entry checks are cumulative (a batch of
// three ε=1 entries breaches a ceiling of 2.5 even though each alone
// would not).
func TestCheckChargeSimulation(t *testing.T) {
	l := NewLedger(1e-5)
	if err := l.SetCeiling(2.5, 1e-5); err != nil {
		t.Fatal(err)
	}
	one := Entry{Kind: KindPure, Eps: 1}
	if err := l.CheckCharge(one); err != nil {
		t.Fatalf("single charge refused: %v", err)
	}
	if err := l.CheckCharge(one, one); err != nil {
		t.Fatalf("two charges refused: %v", err)
	}
	if err := l.CheckCharge(one, one, one); !errors.Is(err, ErrCeilingExceeded) {
		t.Fatalf("cumulative batch check: %v", err)
	}
	if l.Count() != 0 {
		t.Fatalf("CheckCharge mutated the ledger: %d entries", l.Count())
	}
	// CheckCharge then Add agree: everything CheckCharge admits, Add
	// admits, and vice versa (same state, same helper).
	for i := 0; i < 3; i++ {
		pre := l.CheckCharge(one)
		err := l.Add(one)
		if (pre == nil) != (err == nil) {
			t.Fatalf("charge %d: CheckCharge %v vs Add %v", i, pre, err)
		}
	}
	// No ceiling → always nil.
	free := NewLedger(1e-5)
	if err := free.CheckCharge(one, one, one); err != nil {
		t.Fatalf("uncapped CheckCharge: %v", err)
	}
}

// TestCeilingRestoredOverBudget: installing a ceiling a ledger already
// exceeds (a crash-recovered overshoot) is not an error; it refuses
// every further charge while keeping the recorded history intact.
func TestCeilingRestoredOverBudget(t *testing.T) {
	l := NewLedger(1e-5)
	for i := 0; i < 5; i++ {
		if err := l.AddPure("", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SetCeiling(2, 1e-5); err != nil {
		t.Fatalf("installing an already-breached ceiling: %v", err)
	}
	if err := l.AddPure("", 0.001); !errors.Is(err, ErrCeilingExceeded) {
		t.Fatalf("charge on an exhausted session: %v", err)
	}
	if l.Count() != 5 {
		t.Fatalf("history changed: %d entries", l.Count())
	}
}

// TestSetCeilingValidation: bad parameters are rejected, 0 clears.
func TestSetCeilingValidation(t *testing.T) {
	l := NewLedger(1e-5)
	for _, bad := range [][2]float64{{-1, 1e-5}, {1, 2}} {
		if err := l.SetCeiling(bad[0], bad[1]); err == nil {
			t.Errorf("SetCeiling(%v, %v) accepted", bad[0], bad[1])
		}
	}
	if err := l.SetCeiling(1, 0); err != nil { // δ ≤ 0 → headline δ
		t.Fatal(err)
	}
	if eps, delta := l.Ceiling(); eps != 1 || delta != 1e-5 {
		t.Fatalf("ceiling = (%v, %v)", eps, delta)
	}
	if err := l.SetCeiling(0, 0); err != nil {
		t.Fatal(err)
	}
	if eps, _ := l.Ceiling(); eps != 0 {
		t.Fatal("ceiling not cleared")
	}
	if err := l.AddPure("", 100); err != nil {
		t.Fatalf("uncapped charge refused: %v", err)
	}
}

// TestJournalChargeAhead: every applied entry went through the
// journal first; a journal failure aborts the charge with no state
// change; a refused (over-ceiling) charge never reaches the journal.
func TestJournalChargeAhead(t *testing.T) {
	j := &fakeJournal{}
	l := NewLedger(1e-5)
	l.SetJournal(j, "s")
	if err := l.SetCeiling(2, 1e-5); err != nil {
		t.Fatal(err)
	}
	if err := l.AddPure("", 1); err != nil {
		t.Fatal(err)
	}
	if len(j.appends) != 1 || len(j.applied) != 1 || j.applied[0] != 1 {
		t.Fatalf("journal traffic: %d appends, applied %v", len(j.appends), j.applied)
	}

	// Journal failure: charge refused, nothing recorded anywhere.
	j.fail = fmt.Errorf("disk gone")
	if err := l.AddPure("", 0.5); !errors.Is(err, ErrJournal) {
		t.Fatalf("journal-failure charge: %v", err)
	}
	if l.Count() != 1 || len(j.appends) != 1 {
		t.Fatalf("failed journal append left state: count %d, appends %d", l.Count(), len(j.appends))
	}
	j.fail = nil

	// Over-ceiling: refused before the journal sees it.
	if err := l.AddPure("", 5); !errors.Is(err, ErrCeilingExceeded) {
		t.Fatalf("over-ceiling: %v", err)
	}
	if len(j.appends) != 1 {
		t.Fatalf("refused charge was journaled: %d appends", len(j.appends))
	}
}

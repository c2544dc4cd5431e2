// Durable state: the boot and shutdown halves of crash-safe privacy
// accounting. OpenDurable loads the snapshot, recovers the accounting
// WAL, and replays every journaled charge the snapshot does not
// already fold in; Checkpoint writes a fresh snapshot and truncates
// the journal behind it. Between the two, the Server appends to the
// WAL before every ledger charge (charge-ahead), so at every crash
// point the recovered spend is ≥ the spend of every release whose
// noise actually left the process.
package server

import (
	"fmt"

	"pufferfish/internal/accounting"
	"pufferfish/internal/accounting/wal"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
)

// DurableState is what OpenDurable recovered: plug Cache, Accountants
// and WAL straight into Config.
type DurableState struct {
	Cache       *release.ScoreCache
	Accountants map[string]*accounting.Ledger
	// WAL is the recovered journal, open for appends.
	WAL *wal.Writer
	// Replayed counts journal records folded into the ledgers at boot
	// (records the snapshot already held are skipped by sequence).
	Replayed int
	// Torn reports that recovery dropped a torn tail record — by the
	// charge-ahead ordering, a charge whose response never went out.
	Torn bool
}

// OpenDurable restores the serving state from snapPath and walPath.
// The snapshot carries the ledgers up to its recorded WAL sequence;
// any journal records after it (charges made durable but not yet
// snapshotted when the process died) are replayed into the ledgers,
// minting sessions as needed. Replay happens before the server binds
// ceilings and journal to the ledgers, so recovered history is never
// re-journaled and a recovered overshoot is preserved, not refused. A
// legacy cache-only snapshot next to a journal replays the whole
// journal — over-counting is the safe direction; silently dropping
// records is the failure mode this subsystem exists to prevent, and a
// corrupt journal refuses boot loudly (wal.ErrCorrupt).
func OpenDurable(fsys faultfs.FS, clock faultfs.Clock, snapPath, walPath string) (*DurableState, error) {
	cache, accountants, walSeq, err := loadSnapshotFS(fsys, snapPath)
	if err != nil {
		return nil, err
	}
	w, res, err := wal.Recover(fsys, clock, walPath, walSeq)
	if err != nil {
		return nil, err
	}
	st := &DurableState{
		Cache:       cache,
		Accountants: accountants,
		WAL:         w,
		Torn:        res.Torn,
	}
	for _, rec := range res.Records {
		if rec.Seq <= walSeq {
			continue // already folded into the snapshot
		}
		led, ok := st.Accountants[rec.Session]
		if !ok {
			led = accounting.NewLedger(accounting.DefaultDelta)
			if st.Accountants == nil {
				st.Accountants = map[string]*accounting.Ledger{}
			}
			st.Accountants[rec.Session] = led
		}
		if err := led.Add(rec.Entry); err != nil {
			w.Close()
			return nil, fmt.Errorf("server: replay wal record %d into session %q: %w", rec.Seq, rec.Session, err)
		}
		st.Replayed++
	}
	return st, nil
}

// Checkpoint persists the current serving state and truncates the
// journal behind it. The order is load-bearing: the low-water mark is
// read *before* the ledger snapshots, so a charge racing the
// checkpoint is either inside the snapshots with its record dropped by
// Rotate, or past the mark with its record kept — replayed on the next
// boot as, at worst, an over-count. Rotation failure is not fatal: the
// snapshot is already durable and the oversized journal merely replays
// records the next boot will skip by sequence.
func Checkpoint(fsys faultfs.FS, snapPath string, srv *Server, w *wal.Writer) error {
	low := w.LowWater()
	if err := SaveSnapshotFS(fsys, snapPath, srv.Cache(), srv.AccountantSnapshots(), low); err != nil {
		return err
	}
	if err := w.Rotate(low); err != nil {
		return fmt.Errorf("server: rotate wal after snapshot: %w", err)
	}
	return nil
}

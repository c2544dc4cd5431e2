package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pufferfish/internal/accounting"
	"pufferfish/internal/core"
	"pufferfish/internal/faultfs"
	"pufferfish/internal/release"
)

// snapshotFile is the pufferd -cache-file layout: the score-cache
// snapshot next to the named accountant sessions, so a restart resumes
// both the warm scores and the cumulative privacy budgets. WalSeq ties
// the snapshot to the accounting journal: every WAL record with
// seq ≤ WalSeq is already folded into the Accountants ledgers, so
// recovery replays only the records after it (and a crash between
// snapshot and WAL rotation cannot double-count). A file in any other
// layout — a bare core.CacheSnapshot from before the accounting
// ledger — has no "cache" key, so it loads as a cold cache with no
// sessions and a zero WalSeq, and recovery replays the whole journal.
type snapshotFile struct {
	Cache       core.CacheSnapshot             `json:"cache"`
	Accountants map[string]accounting.Snapshot `json:"accountants,omitempty"`
	WalSeq      uint64                         `json:"wal_seq,omitempty"`
}

// loadSnapshotFS reads a snapshot written by SaveSnapshotFS and returns
// a warmed cache, the restored accountant sessions and the snapshot's
// WAL low-water sequence for journal replay. A missing file is not an
// error: it returns a fresh empty cache and no accountants (first
// boot).
func loadSnapshotFS(fsys faultfs.FS, path string) (*release.ScoreCache, map[string]*accounting.Ledger, uint64, error) {
	cache := release.NewScoreCache()
	blob, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return cache, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("server: read cache file: %w", err)
	}
	var sf snapshotFile
	if err := json.Unmarshal(blob, &sf); err != nil {
		return nil, nil, 0, fmt.Errorf("server: parse cache file %s: %w", path, err)
	}
	if err := cache.Restore(sf.Cache); err != nil {
		// A legacy-version cache (pre kind-tag fingerprints, or no
		// "cache" key at all) is expected across upgrades: its entries
		// are keyed in a dead fingerprint domain, so start the score
		// cache cold — but never discard the accountants, which carry
		// cumulative privacy spend a restart must not forget. Restore
		// rejects before merging, so the cache is still empty here.
		if !errors.Is(err, core.ErrLegacySnapshot) {
			return nil, nil, 0, fmt.Errorf("server: restore cache file %s: %w", path, err)
		}
	}
	var accountants map[string]*accounting.Ledger
	if len(sf.Accountants) > 0 {
		accountants = make(map[string]*accounting.Ledger, len(sf.Accountants))
		for name, snap := range sf.Accountants {
			led, err := accounting.Restore(snap)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("server: restore accountant %q from %s: %w", name, path, err)
			}
			accountants[name] = led
		}
	}
	return cache, accountants, sf.WalSeq, nil
}

// SaveSnapshotFS writes the cache and the accountant sessions as one
// JSON snapshot, atomically (temp file + rename + parent-directory
// fsync), so a crash mid-write can never truncate a snapshot a future
// boot would trust. walSeq is the journal low-water mark the snapshot
// folds in: callers pairing the snapshot with a WAL must pass the
// journal's LowWater() taken *before* the accountant snapshots, so an
// append racing the save replays as an over-count, never an
// under-count.
func SaveSnapshotFS(fsys faultfs.FS, path string, cache *release.ScoreCache, accountants map[string]accounting.Snapshot, walSeq uint64) error {
	blob, err := json.MarshalIndent(snapshotFile{
		Cache:       cache.Snapshot(),
		Accountants: accountants,
		WalSeq:      walSeq,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal cache snapshot: %w", err)
	}
	return writeFileAtomic(fsys, path, blob)
}

// writeFileAtomic writes blob via a synced temp file + rename + parent
// directory fsync.
func writeFileAtomic(fsys faultfs.FS, path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: write cache file: %w", err)
	}
	_, werr := f.Write(append(blob, '\n'))
	// Flush to disk before the rename: an unsynced rename can survive
	// a crash with empty data blocks, and a truncated snapshot blocks
	// the next boot (load failures are deliberately fatal).
	if werr == nil {
		werr = f.Sync()
	}
	cerr := f.Close()
	if werr != nil || cerr != nil {
		fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("server: write cache file: %w", errors.Join(werr, cerr))
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("server: write cache file: %w", err)
	}
	// Fsync the parent directory after the rename: the rename itself is
	// a directory-entry update, and on a crash before the directory
	// metadata reaches disk the swap can roll back to the old snapshot
	// (or, for a first write, to no file at all). The data blocks were
	// synced above, so after this the new snapshot is the one a reboot
	// sees.
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("server: write cache file: sync dir: %w", err)
	}
	return nil
}

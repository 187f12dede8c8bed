package wal

import "fmt"

// Tailer reads a WAL directory that another process owns, strictly
// read-only: it never creates segments, never truncates torn tails and
// never prunes — the mutations Open performs to position a writer. A
// router replica uses a Tailer to bootstrap from a primary's checkpoint
// and then follow the primary's log as it grows (the "-follow" serving
// mode), without either process coordinating beyond the filesystem. Its
// damage policy is the follower column of the package's recovery table.
//
// A Tailer is not goroutine-safe; the owning follower serialises Poll.
type Tailer struct {
	fs   FS
	dir  string
	next uint64 // LSN the next Poll starts delivering at
}

// OpenTailer scans dir read-only and returns the same recovery view Open
// would produce — the newest readable checkpoint plus every intact record
// after it — without mutating the directory. The returned Tailer is
// positioned to deliver records appended after rec.LastLSN.
func OpenTailer(fsys FS, dir string) (*Tailer, *Recovered, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("wal: tailer dir is required")
	}
	rec := &Recovered{}
	ls, err := listDir(fsys, dir, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := ls.loadCheckpoint(rec); err != nil {
		return nil, nil, err
	}
	t := &Tailer{fs: fsys, dir: dir, next: rec.CheckpointLSN + 1}
	if rec.Records, rec.TornTail, err = t.read(ls, rec); err != nil {
		return nil, nil, err
	}
	rec.LastLSN = t.next - 1
	return t, rec, nil
}

// Poll re-lists the directory and returns the payloads of every intact
// record appended since the previous Poll (or OpenTailer), in LSN order.
// An in-flight write at the end of the log stops the scan early — those
// records are returned by a later Poll once their frames are complete. If
// the primary has checkpointed and pruned the segments the tailer still
// needs (the follower fell too far behind), Poll returns ErrGap: the
// follower must re-bootstrap from the newer checkpoint. A failed Poll
// delivers nothing and leaves the tailer where it was.
func (t *Tailer) Poll() ([][]byte, error) {
	ls, err := listDir(t.fs, t.dir, nil)
	if err != nil {
		return nil, err
	}
	records, _, err := t.read(ls, nil)
	return records, err
}

// LSN returns the LSN of the last record the tailer has delivered.
func (t *Tailer) LSN() uint64 { return t.next - 1 }

// read walks ls from t.next and applies the tailer's damage policy: damage
// in the final segment is the writer's in-flight (or torn) tail, so the
// read stops before it and reports torn; anywhere else it is corruption.
// Warnings go to rec unless it is nil. t advances only on success.
func (t *Tailer) read(ls *listing, rec *Recovered) (records [][]byte, torn bool, err error) {
	records, next, dmg, err := ls.walk(t.next)
	if err != nil {
		return nil, false, err
	}
	if dmg != nil && dmg.seg != len(ls.segs)-1 {
		err := fmt.Errorf("wal: segment %s: bad record at offset %d with intact segments after it: %w",
			dmg.name, dmg.off, ErrCorrupt)
		if dmg.header {
			err = fmt.Errorf("wal: segment %s has a damaged header mid-chain: %w", dmg.name, ErrCorrupt)
		}
		return nil, false, &SegmentError{Name: dmg.name, Err: err}
	}
	if dmg != nil && rec != nil {
		msg := fmt.Sprintf("segment %s: incomplete record at offset %d (LSN %d); stopping there", dmg.name, dmg.off, dmg.lsn)
		if dmg.header {
			msg = fmt.Sprintf("segment %s has a damaged header; stopping before it", dmg.name)
		}
		rec.Warnings = append(rec.Warnings, msg)
	}
	t.next = next
	return records, dmg != nil, nil
}

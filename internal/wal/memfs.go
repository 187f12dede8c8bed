package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every MemFS operation after the simulated
// process has crashed (its write budget ran out) and before Crash*
// resolves the outcome.
var ErrCrashed = errors.New("wal: simulated crash")

// ErrInjected is the default error surfaced by scripted faults
// (SetReadFault / SetWriteFault / SetSyncFault with a nil error).
var ErrInjected = errors.New("wal: injected fault")

// MemFS is a deterministic in-memory FS for fault injection. It models
// the two distinct durability layers a real crash cuts through:
//
//   - a write budget: after SetBudget(n), exactly n more bytes of Write
//     succeed and the next byte fails mid-call — the process crash. This
//     places the crash at an arbitrary byte offset, including mid-record
//     and mid-header.
//   - a synced watermark per file, advanced only by File.Sync, plus a
//     pending-rename list cleared only by SyncDir — the page cache. After
//     a crash, CrashLose discards everything above the watermarks and
//     rolls back renames that were never made durable (the machine lost
//     power); CrashKeep keeps all written bytes and completed renames
//     (only the process died).
//
// Both resolutions reset the FS to a readable state so recovery can run
// against exactly what "the disk" would hold.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	budget  int64 // remaining writable bytes; < 0 means unlimited
	crashed bool
	pending []renameOp // renames not yet made durable by SyncDir
	written int64      // total bytes ever written (for sweep planning)

	// Scripted transient faults (see SetReadFault and friends). Unlike
	// the write budget these do not crash the FS: the matched operation
	// fails and life goes on — EIO on a cold page, a raced prune, a disk
	// that bounces an fsync.
	readFault  faultRule
	writeFault faultRule
	syncFault  faultRule
	readHook   func(path string) error
}

// faultRule scripts transient failures for one operation class: the next
// count calls whose path contains match fail with err.
type faultRule struct {
	match string
	count int // remaining injections; < 0 means unlimited
	err   error
}

// take consumes one injection if the rule matches path, returning the
// scripted error (nil when the rule is disarmed or does not match).
func (f *faultRule) take(path string) error {
	if f.count == 0 || !strings.Contains(path, f.match) {
		return nil
	}
	if f.count > 0 {
		f.count--
	}
	if f.err != nil {
		return f.err
	}
	return ErrInjected
}

type memFile struct {
	data   []byte
	synced int
}

type renameOp struct {
	from, to  string
	fromFile  *memFile // the file as it existed under from
	displaced *memFile // whatever `to` pointed at before, nil if nothing
}

// NewMemFS returns an empty MemFS with an unlimited write budget.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), budget: -1}
}

// SetBudget arms the crash: after n more written bytes, the next byte
// fails and the FS refuses all further work until CrashLose or CrashKeep.
// n < 0 disarms.
func (m *MemFS) SetBudget(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = n
	m.crashed = false
}

// Written returns the total bytes ever written through the FS, so a test
// can run a stream once uncrashed and derive the sweep offsets.
func (m *MemFS) Written() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// CrashLose resolves the crash as a power loss: every file is truncated
// to its synced watermark and renames never covered by a SyncDir are
// rolled back. The FS becomes usable again with an unlimited budget.
func (m *MemFS) CrashLose() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := len(m.pending) - 1; i >= 0; i-- {
		op := m.pending[i]
		if m.files[op.to] == op.fromFile {
			delete(m.files, op.to)
			if op.displaced != nil {
				m.files[op.to] = op.displaced
			}
			m.files[op.from] = op.fromFile
		}
	}
	m.pending = nil
	for _, f := range m.files {
		f.data = f.data[:f.synced]
	}
	m.crashed = false
	m.budget = -1
}

// CrashKeep resolves the crash as a process kill with the OS intact:
// written bytes and completed renames survive even though never fsynced.
func (m *MemFS) CrashKeep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = nil
	for _, f := range m.files {
		f.synced = len(f.data)
	}
	m.crashed = false
	m.budget = -1
}

// SetReadFault arms scripted read-path injection: the next count
// ReadFile calls whose path contains match fail with err (nil err:
// ErrInjected). count < 0 injects until disarmed; count 0 disarms.
func (m *MemFS) SetReadFault(match string, count int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readFault = faultRule{match: match, count: count, err: err}
}

// SetWriteFault arms scripted write-path injection: the next count
// File.Write calls on files whose path contains match fail (taking no
// bytes) with err. Semantics as SetReadFault.
func (m *MemFS) SetWriteFault(match string, count int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeFault = faultRule{match: match, count: count, err: err}
}

// SetSyncFault arms scripted fsync injection: the next count File.Sync
// calls on files whose path contains match fail with err, without
// advancing the synced watermark. Semantics as SetReadFault.
func (m *MemFS) SetSyncFault(match string, count int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.syncFault = faultRule{match: match, count: count, err: err}
}

// SetReadHook installs fn to run at the top of every ReadFile, outside
// the FS lock — the fully scriptable side of the read path. The hook may
// mutate the FS (e.g. Remove the very file being read, modelling a prune
// racing an in-flight tailer Poll between its List and ReadFile); a
// non-nil return is surfaced as the ReadFile error. nil uninstalls.
func (m *MemFS) SetReadHook(fn func(path string) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readHook = fn
}

// FlipBit XORs one bit at byte offset off of name — the disk-rot /
// corruption injector.
func (m *MemFS) FlipBit(name string, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok || off < 0 || off >= int64(len(f.data)) {
		return fmt.Errorf("memfs: flip %s@%d: no such byte", name, off)
	}
	f.data[off] ^= 1
	f.synced = len(f.data)
	return nil
}

// Size returns the length of name, or -1 if absent.
func (m *MemFS) Size(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[filepath.Clean(name)]; ok {
		return int64(len(f.data))
	}
	return -1
}

func (m *MemFS) checkLocked() error {
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// MkdirAll is a no-op beyond the crash check: MemFS is flat, paths are
// just keys.
func (m *MemFS) MkdirAll(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkLocked()
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return nil, err
	}
	f := &memFile{}
	m.files[filepath.Clean(name)] = f
	return &memHandle{fs: m, f: f, name: filepath.Clean(name)}, nil
}

func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	hook := m.readHook
	m.mu.Unlock()
	if hook != nil {
		// Outside the lock: the hook may call back into the FS.
		if err := hook(name); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return nil, err
	}
	if err := m.readFault.take(name); err != nil {
		return nil, fmt.Errorf("memfs: read %s: %w", name, err)
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: file does not exist", name)
	}
	return append([]byte(nil), f.data...), nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return nil, err
	}
	dir = filepath.Clean(dir)
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == dir {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Rename(old, new string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return err
	}
	old, new = filepath.Clean(old), filepath.Clean(new)
	f, ok := m.files[old]
	if !ok {
		return fmt.Errorf("memfs: rename %s: file does not exist", old)
	}
	m.pending = append(m.pending, renameOp{from: old, to: new, fromFile: f, displaced: m.files[new]})
	delete(m.files, old)
	m.files[new] = f
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return err
	}
	name = filepath.Clean(name)
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: file does not exist", name)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return err
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return fmt.Errorf("memfs: truncate %s: file does not exist", name)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("memfs: truncate %s to %d: out of range", name, size)
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (m *MemFS) SyncDir(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(); err != nil {
		return err
	}
	m.pending = nil // renames (and creates/removes) now durable
	return nil
}

type memHandle struct {
	fs     *MemFS
	f      *memFile
	name   string
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errors.New("memfs: write to closed file")
	}
	if err := h.fs.writeFault.take(h.name); err != nil {
		return 0, fmt.Errorf("memfs: write %s: %w", h.name, err)
	}
	n := len(p)
	if h.fs.budget >= 0 && int64(n) > h.fs.budget {
		n = int(h.fs.budget)
		h.f.data = append(h.f.data, p[:n]...)
		h.fs.written += int64(n)
		h.fs.budget = 0
		h.fs.crashed = true
		return n, ErrCrashed
	}
	h.f.data = append(h.f.data, p...)
	h.fs.written += int64(n)
	if h.fs.budget >= 0 {
		h.fs.budget -= int64(n)
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	if err := h.fs.syncFault.take(h.name); err != nil {
		return fmt.Errorf("memfs: fsync %s: %w", h.name, err)
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// DumpNames lists every file path in the FS (sorted) — a debugging aid
// for failed sweeps.
func (m *MemFS) DumpNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for p := range m.files {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}

// String summarises the FS state.
func (m *MemFS) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "memfs{written=%d crashed=%v budget=%d", m.written, m.crashed, m.budget)
	for _, p := range func() []string {
		names := make([]string, 0, len(m.files))
		for q := range m.files {
			names = append(names, q)
		}
		sort.Strings(names)
		return names
	}() {
		f := m.files[p]
		fmt.Fprintf(&b, " %s:%d/%d", filepath.Base(p), f.synced, len(f.data))
	}
	b.WriteString("}")
	return b.String()
}

package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
)

// JournalName is the run journal's filename inside a cache directory.
const JournalName = "journal.log"

// lockSuffix names the exclusive-writer lock file next to the journal.
const lockSuffix = ".lock"

// Journal is the crash-safe record of completed cells and the
// single-writer lock of a cache directory: one appended, fsynced line
// per cell that finished (simulated or cache-served) holding the cell's
// content hash and human-readable key. It lives next to the
// ResultCache. It does not decide what a rerun may trust: the cache
// does that, since every entry carries the build that wrote it and an
// entry of any other build misses. An interrupted run is continued by
// rerunning it on the same directory. What the journal adds is its lock
// (two live writers on one directory fail fast instead of racing) and
// its record (Len counts the cells this directory has seen complete).
//
// The format is deliberately dumb: append-only text, one record per
// line. A crash mid-append leaves at most one torn final line, which
// the loader discards (a discarded record only costs one re-simulated
// cell). Appends fsync before returning, so a record survives the
// machine dying right after the cell completed.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	lock *os.File // holds the writer flock
	done map[string]bool
}

// lockJournal takes the exclusive writer lock guarding path: a
// non-blocking flock on the lock file next to it, held by the returned
// file until it is closed. The kernel drops the lock when its holder
// exits, so a crashed owner leaves no stale lock, whatever PID the file
// names. flock conflicts across open file descriptions, so a second
// runner in this process is refused like a second process. Two live
// writers — two coordinators or runners pointed at the same cache
// directory — fail fast here with a clear error instead of interleaving
// fsynced appends.
func lockJournal(path string) (*os.File, error) {
	name := path + lockSuffix
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: lock %s: %w", name, err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		holder, _ := io.ReadAll(f)
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("journal: %s locked by process %s; another coordinator or runner is using this cache directory", path, strings.TrimSpace(string(holder)))
		}
		return nil, fmt.Errorf("journal: lock %s: %w", name, err)
	}
	// The PID only names the holder in a refused opener's error, so a
	// failed write costs nothing else.
	if f.Truncate(0) == nil {
		fmt.Fprintf(f, "%d\n", os.Getpid())
	}
	return f, nil
}

// OpenJournal opens (creating if needed) the journal at path and loads
// the completed-cell set from any prior run. Torn or malformed lines
// are skipped, not fatal. The journal is an exclusive-writer structure:
// opening takes a flock on a lock file next to it, so two live
// processes (or two runners in one process) sharing a cache directory
// fail fast instead of interleaving appends.
func OpenJournal(path string) (*Journal, error) {
	lock, err := lockJournal(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{lock: lock, done: make(map[string]bool)}
	if data, err := os.ReadFile(path); err == nil {
		lines := strings.Split(string(data), "\n")
		if len(data) > 0 && !strings.HasSuffix(string(data), "\n") {
			// No trailing newline: the final line is a torn append from
			// a crash mid-write. Drop it — and truncate it off the file,
			// or the next append would glue onto the partial record and
			// lose both lines on a later reload. A discarded record only
			// costs one re-simulated cell.
			lines = lines[:len(lines)-1]
			keep := 0
			if i := strings.LastIndexByte(string(data), '\n'); i >= 0 {
				keep = i + 1
			}
			if err := os.Truncate(path, int64(keep)); err != nil {
				lock.Close()
				return nil, fmt.Errorf("journal: drop torn tail: %w", err)
			}
		}
		for _, line := range lines {
			hash, _, _ := strings.Cut(line, " ")
			if isCellHash(hash) {
				j.done[hash] = true
			}
		}
	} else if !os.IsNotExist(err) {
		lock.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	return j, nil
}

// isCellHash reports whether s looks like a CellKey.Hash (64 hex
// digits) — the journal loader's line filter.
func isCellHash(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Done reports whether the cell with this hash completed in this or a
// prior journaled run.
func (j *Journal) Done(hash string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[hash]
}

// Len returns the number of distinct completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends the cell's completion and fsyncs it to disk. Already-
// recorded hashes are not re-appended, so re-runs over a warm cache
// don't grow the file.
func (j *Journal) Record(hash string, key CellKey) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[hash] {
		return nil
	}
	if _, err := fmt.Fprintf(j.f, "%s %s\n", hash, key); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.done[hash] = true
	return nil
}

// Close releases the journal's file handle and its writer lock.
// Recorded state stays on disk; a closed journal must not be recorded
// to.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	j.lock.Close()
	return err
}

package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalRecordReload: recorded hashes survive a close/reopen cycle.
func TestJournalRecordReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := []CellKey{synKey(0), synKey(1), synKey(2)}
	for _, k := range keys {
		if err := j.Record(k.Hash(), k); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 3 {
		t.Fatalf("len = %d, want 3", j.Len())
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Fatalf("reloaded len = %d, want 3", j2.Len())
	}
	for _, k := range keys {
		if !j2.Done(k.Hash()) {
			t.Errorf("hash of %s lost across reopen", k)
		}
	}
	if j2.Done(synKey(9).Hash()) {
		t.Error("unrecorded hash reported done")
	}
}

// TestJournalDedup: re-recording a hash neither grows the set nor the
// file.
func TestJournalDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	k := synKey(0)
	if err := j.Record(k.Hash(), k); err != nil {
		t.Fatal(err)
	}
	st1, _ := os.Stat(path)
	if err := j.Record(k.Hash(), k); err != nil {
		t.Fatal(err)
	}
	st2, _ := os.Stat(path)
	if j.Len() != 1 || st1.Size() != st2.Size() {
		t.Errorf("duplicate record changed state: len=%d size %d -> %d", j.Len(), st1.Size(), st2.Size())
	}
}

// TestJournalTornTail: a final line without a trailing newline is a torn
// append from a crash — it must be discarded on reload, and complete
// prior lines kept.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	good := synKey(0)
	if err := j.Record(good.Hash(), good); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a partial record with no newline.
	torn := synKey(1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(torn.Hash()[:40]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Done(good.Hash()) {
		t.Error("complete record lost")
	}
	if j2.Len() != 1 {
		t.Errorf("len = %d, want 1 (torn tail kept?)", j2.Len())
	}

	// The journal stays appendable after recovery, and the next reopen
	// sees both the old record and the new one.
	next := synKey(2)
	if err := j2.Record(next.Hash(), next); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !j3.Done(good.Hash()) || !j3.Done(next.Hash()) {
		t.Error("records lost after torn-tail recovery")
	}
}

// TestJournalMalformedLines: junk lines (wrong hash length, non-hex,
// empty) are skipped, valid ones kept.
func TestJournalMalformedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	good := synKey(0)
	content := strings.Join([]string{
		"not-a-hash some junk",
		good.Hash() + " " + good.String(),
		"deadbeef short",
		"",
		strings.Repeat("zz", 32) + " non-hex but 64 chars",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 1 || !j.Done(good.Hash()) {
		t.Errorf("len = %d, done = %v; want exactly the one valid record", j.Len(), j.Done(good.Hash()))
	}
}

// TestJournalLockExcludesSecondWriter: two live openers of one journal
// — a worker and a second coordinator pointed at the same -cachedir,
// say — must not interleave appends: the second open fails fast with a
// clear error, and closing the first releases the lock.
func TestJournalLockExcludesSecondWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("second concurrent open succeeded; concurrent writers would interleave appends")
	} else if !strings.Contains(err.Error(), "locked by process") {
		t.Errorf("second open error %q does not explain the conflict", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open after close still locked: %v", err)
	}
	j2.Close()
}

// TestJournalLockStaleBroken: a lock left by a dead process (its PID no
// longer probes as alive) is stale and must be broken, not honored
// forever.
func TestJournalLockStaleBroken(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	// PID 1 is alive on every Linux box but never us; an absurdly large
	// PID is reliably dead. Use the dead one for staleness.
	if err := os.WriteFile(path+lockSuffix, []byte("399999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("stale lock not broken: %v", err)
	}
	j.Close()

	// A torn lock (no parseable PID) is also stale.
	if err := os.WriteFile(path+lockSuffix, []byte("garb"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn lock not broken: %v", err)
	}
	j2.Close()
}

// TestJournalLockOwnPIDStale: a lock file that names this process's
// PID but is not held — left by a killed predecessor that had the same
// PID, as for a process that runs as PID 1 in a container — is stale.
func TestJournalLockOwnPIDStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	if err := os.WriteFile(path+lockSuffix, []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("stale lock naming our own PID was honored: %v", err)
	}
	j.Close()
}

// TestJournalLockHeldByOtherProcess: a lock really held by another live
// process is honored, and the error names that process. The holder is
// this test binary re-executed; it keeps the journal open until its
// stdin closes.
func TestJournalLockHeldByOtherProcess(t *testing.T) {
	if path := os.Getenv("JOURNAL_LOCK_HOLDER"); path != "" {
		j, err := OpenJournal(path)
		if err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		fmt.Println("held")
		io.ReadAll(os.Stdin)
		j.Close()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), JournalName)
	holder := exec.Command(os.Args[0], "-test.run=^TestJournalLockHeldByOtherProcess$")
	holder.Env = append(os.Environ(), "JOURNAL_LOCK_HOLDER="+path)
	stdin, err := holder.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := holder.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}
	release := func() {
		stdin.Close()
		holder.Wait()
	}
	defer release()
	if line, _ := bufio.NewReader(stdout).ReadString('\n'); line != "held\n" {
		t.Fatalf("holder did not take the lock: %q", line)
	}

	_, err = OpenJournal(path)
	if err == nil {
		t.Fatal("lock held by a live process was stolen")
	}
	if want := fmt.Sprintf("locked by process %d", holder.Process.Pid); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the lock holder (%s)", err, want)
	}

	// The kernel drops the lock when its holder exits.
	release()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("lock outlived its holder: %v", err)
	}
	j.Close()
}

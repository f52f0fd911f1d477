// Package atomicfile publishes files crash-safely. It is the one write
// path of the on-disk result cache and the shared code cache.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

var seq atomic.Int64 // temp-file uniquifier within the process

// Publish stores data under path crash-safely: write a temp file next
// to it, fsync the data, rename over path, fsync the directory. A
// concurrent reader never observes a torn file (rename is atomic), and
// a crash at any point leaves either the old state or the complete new
// file — never a short file under the final name. The temp name carries
// the pid and a per-process sequence number, so concurrent writers never
// share one. A failed write removes its temp file so an interrupted run
// doesn't litter the directory. Missing parent directories are created.
func Publish(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), seq.Add(1))
	if err := writeSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Durability of the rename itself: fsync the containing directory
	// so the file survives the machine dying right after Publish
	// returns. Best effort — some filesystems refuse directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// writeSync writes data to path and fsyncs it before close, so the
// subsequent rename never publishes a name whose bytes are still only
// in the page cache.
func writeSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

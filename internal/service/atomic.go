package service

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// AtomicWriteFile writes a file crash-safely: write produces the content
// into a temp file in the target's directory, which is fsynced and renamed
// over path. Readers never observe a partially written artifact — they see
// either the old file or the new one — and a crash mid-write leaves the
// target untouched. The CLI tools use this for every generated artifact
// (traces, baselines) so an interrupted run cannot leave a torn file that a
// later run silently consumes.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := fsync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomic write %s: %w", path, err)
	}
	return nil
}

// fsync is (*os.File).Sync behind a seam: a real fsync failure means the
// kernel could not promise durability and MUST surface to the caller — tests
// stub this to prove the error path is not swallowed (a torn artifact that
// "succeeded" is exactly the failure mode this package exists to prevent).
var fsync = (*os.File).Sync

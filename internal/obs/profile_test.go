package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfilesWritesBoth: stop leaves a non-empty CPU profile and a
// heap profile behind.
func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestStartProfilesNone: empty paths start nothing and stop writes nothing.
func TestStartProfilesNone(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesBadPath: a CPU profile that cannot be created is an
// error at start.
func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("want an error for an uncreatable CPU profile")
	}
}

package trace

import (
	"errors"
	"math/rand"
	"os"
	"testing"

	"hpctradeoff/internal/faultinject"
)

// The codec-read failpoint turns a v3 open into an I/O-style failure at
// a chosen rank, so tests can exercise read-error paths on structurally
// valid inputs; disarmed, the codec is untouched.
func TestCodecReadFailpoint(t *testing.T) {
	path := writeV3File(t, randomTrace(rand.New(rand.NewSource(1))))

	if err := faultinject.Arm(1, []faultinject.Rule{
		{Site: "trace/codec-read", Hits: []uint64{1}},
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disarm)

	if _, err := OpenMapped(path); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("OpenMapped err = %v, want injected", err)
	}
	// The rule is exhausted after one firing per arm; re-arm for the
	// copy-mode parse.
	if err := faultinject.Arm(2, []faultinject.Rule{
		{Site: "trace/codec-read", Hits: []uint64{1}},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseV3(data, false); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("copy-mode parseV3 err = %v, want injected", err)
	}

	faultinject.Disarm()
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("disarmed OpenMapped failed: %v", err)
	}
	m.Close()
}

package pipeline

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mgsilt/internal/grid"
)

func sampleCheckpoint() *Checkpoint {
	m := grid.NewMat(3, 5)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.25
	}
	m.Data[0] = -1.5
	m.Data[7] = math.SmallestNonzeroFloat64
	return &Checkpoint{Flow: "multigrid-schwarz", Stage: 2, Total: 4, Mask: m}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != ck.Flow || got.Stage != ck.Stage || got.Total != ck.Total {
		t.Fatalf("header round trip: got %s %d/%d, want %s %d/%d",
			got.Flow, got.Stage, got.Total, ck.Flow, ck.Stage, ck.Total)
	}
	if !got.Mask.Equal(ck.Mask) {
		t.Fatal("mask payload not bit-identical after round trip")
	}
}

// A checkpoint file is replaced whole: the new snapshot reads back, a
// write that fails leaves the previous one, and no temporary file is
// left behind either way.
func TestCheckpointFileReplacedAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	first, second := sampleCheckpoint(), sampleCheckpoint()
	second.Stage = 3
	for _, ck := range []*Checkpoint{first, second} {
		if err := WriteCheckpointFile(path, ck); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteCheckpointFile(path, &Checkpoint{Flow: "bad flow", Mask: grid.NewMat(1, 1)}); err == nil {
		t.Fatal("an unserialisable checkpoint was written")
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stage != second.Stage || !got.Mask.Equal(second.Mask) {
		t.Fatalf("read back stage %d, want the last good write's %d", got.Stage, second.Stage)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the directory, want the checkpoint alone", len(entries))
	}
	if _, err := ReadCheckpointFile(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("a missing file read as a checkpoint")
	}
}

func TestCheckpointHeaderIsInspectable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 5)
	want := []string{checkpointMagic, "flow multigrid-schwarz", "stage 2 4", "mask 3 5"}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("header line %d = %q, want %q", i, lines[i], w)
		}
	}
}

// TestReadCheckpointRejectsBudgetLine: older builds wrote an optional
// per-stage kernel-budget line between the stage and mask lines
// (testdata/budget.ckpt is such a file). This build evaluates one kernel
// set, so a checkpoint taken under a budget must fail to read rather
// than resume under different numerics — while the same file without
// that line is an ordinary checkpoint.
func TestReadCheckpointRejectsBudgetLine(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "budget.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("checkpoint with a kernel-budget header line accepted")
	}
	lines := bytes.SplitN(data, []byte("\n"), 5)
	stripped := bytes.Join(append(lines[:3:3], lines[4]), []byte("\n"))
	ck, err := ReadCheckpoint(bytes.NewReader(stripped))
	if err != nil {
		t.Fatalf("the same checkpoint without the budget line: %v", err)
	}
	if ck.Flow != "multigrid-schwarz" || ck.Stage != 1 || ck.Total != 3 || ck.Mask.At(1, 0) != 0.5 {
		t.Fatalf("stripped checkpoint misread: %+v", ck)
	}
}

func TestWriteCheckpointRejectsUnserialisable(t *testing.T) {
	var buf bytes.Buffer
	bad := []*Checkpoint{
		nil,
		{Flow: "x", Stage: 1, Total: 1, Mask: nil},
		{Flow: "", Stage: 1, Total: 1, Mask: grid.NewMat(2, 2)},
		{Flow: "two words", Stage: 1, Total: 1, Mask: grid.NewMat(2, 2)},
	}
	for i, ck := range bad {
		if err := WriteCheckpoint(&buf, ck); err == nil {
			t.Fatalf("bad checkpoint %d serialised without error", i)
		}
	}
}

func TestReadCheckpointRejectsCorruptInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := map[string][]byte{
		"empty":             nil,
		"bad magic":         []byte("mgsilt-checkpoint v9\nflow x\nstage 1 1\nmask 1 1\n" + strings.Repeat("\x00", 8)),
		"missing header":    []byte(checkpointMagic + "\n"),
		"bad stage line":    []byte(checkpointMagic + "\nflow x\nstage one two\nmask 1 1\n"),
		"stage zero":        []byte(checkpointMagic + "\nflow x\nstage 0 1\nmask 1 1\n" + strings.Repeat("\x00", 8)),
		"stage past total":  []byte(checkpointMagic + "\nflow x\nstage 3 2\nmask 1 1\n" + strings.Repeat("\x00", 8)),
		"zero mask":         []byte(checkpointMagic + "\nflow x\nstage 1 1\nmask 0 0\n"),
		"oversized mask":    []byte(fmt.Sprintf("%s\nflow x\nstage 1 1\nmask %d %d\n", checkpointMagic, MaxCheckpointSide+1, 4)),
		"truncated payload": good[:len(good)-4],
		"trailing data":     append(append([]byte{}, good...), 0xAB),
	}
	for name, data := range corrupt {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: corrupt checkpoint accepted", name)
		}
	}
}

func TestReadCheckpointBoundsAllocation(t *testing.T) {
	// A hostile header claiming a huge (but individually in-bounds)
	// mask must fail on the missing payload, not hang or OOM: the
	// allocation is capped at MaxCheckpointSide^2 float64s.
	hdr := fmt.Sprintf("%s\nflow x\nstage 1 1\nmask %d %d\n", checkpointMagic, 4, MaxCheckpointSide)
	if _, err := ReadCheckpoint(strings.NewReader(hdr)); err == nil {
		t.Fatal("payloadless oversized checkpoint accepted")
	}
}

package pipeline

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mgsilt/internal/grid"
)

// Checkpoint is a stage-level snapshot of a running flow: the working
// layout after Stage completed stages. It is what the job service
// keeps in memory and what cmd/iltrun persists to disk so a killed run
// resumes from its last completed stage instead of from scratch.
type Checkpoint struct {
	// Flow is the flow that produced the snapshot ("multigrid-schwarz",
	// "divide-and-conquer", "full-chip", "stitch-and-heal"); resume
	// validates it.
	Flow string
	// Stage counts completed engine stages, 1-based.
	Stage int
	// Total is the schedule's stage count, for progress reporting.
	Total int
	// Mask is the working layout after Stage stages (a clone; safe to
	// retain).
	Mask *grid.Mat
}

// ValidFor checks that the checkpoint can seed the given flow and
// geometry.
func (ck *Checkpoint) ValidFor(flow string, clip, total int) error {
	if ck.Flow != flow {
		return fmt.Errorf("pipeline: checkpoint from flow %q cannot resume %q", ck.Flow, flow)
	}
	if ck.Mask == nil || ck.Mask.H != clip || ck.Mask.W != clip {
		return fmt.Errorf("pipeline: checkpoint mask does not match clip %d", clip)
	}
	if ck.Stage < 1 || ck.Stage > total {
		return fmt.Errorf("pipeline: checkpoint stage %d out of range 1..%d", ck.Stage, total)
	}
	return nil
}

// Disk format: a line-oriented versioned header followed by the raw
// mask payload (H·W float64 values, little-endian, row-major). The
// header is human-inspectable (`head -4 run.ckpt`) and the version
// line lets the format evolve without silently misreading old files.
// The mask line follows the stage line directly: a file carrying any
// other header line (older builds wrote an optional kernel-budget line
// there) is rejected rather than resumed under different numerics.
const (
	checkpointMagic = "mgsilt-checkpoint v1"
	// MaxCheckpointSide caps the mask dimensions accepted from disk,
	// like imgio's PGM reader: a corrupt or hostile header must not
	// provoke a multi-gigabyte allocation.
	MaxCheckpointSide = 1 << 14
)

// WriteCheckpoint serialises the checkpoint.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil || ck.Mask == nil {
		return fmt.Errorf("pipeline: cannot write empty checkpoint")
	}
	if strings.ContainsAny(ck.Flow, " \n") || ck.Flow == "" {
		return fmt.Errorf("pipeline: flow name %q not serialisable", ck.Flow)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\nflow %s\nstage %d %d\n",
		checkpointMagic, ck.Flow, ck.Stage, ck.Total)
	fmt.Fprintf(bw, "mask %d %d\n", ck.Mask.H, ck.Mask.W)
	if err := WriteMatData(bw, ck.Mask); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCheckpoint parses a checkpoint previously written by
// WriteCheckpoint, validating the header and bounding the payload.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	line := func() (string, error) {
		s, err := br.ReadString('\n')
		if err != nil {
			return "", fmt.Errorf("pipeline: truncated checkpoint header: %w", err)
		}
		return strings.TrimSuffix(s, "\n"), nil
	}
	magic, err := line()
	if err != nil {
		return nil, err
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("pipeline: not a checkpoint file (header %q)", magic)
	}
	ck := &Checkpoint{}
	fl, err := line()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(fl, "flow %s", &ck.Flow); err != nil {
		return nil, fmt.Errorf("pipeline: bad flow line %q", fl)
	}
	sl, err := line()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(sl, "stage %d %d", &ck.Stage, &ck.Total); err != nil {
		return nil, fmt.Errorf("pipeline: bad stage line %q", sl)
	}
	if ck.Stage < 1 || ck.Total < ck.Stage {
		return nil, fmt.Errorf("pipeline: checkpoint stage %d/%d out of range", ck.Stage, ck.Total)
	}
	ml, err := line()
	if err != nil {
		return nil, err
	}
	var h, w int
	if _, err := fmt.Sscanf(ml, "mask %d %d", &h, &w); err != nil {
		return nil, fmt.Errorf("pipeline: bad mask line %q", ml)
	}
	if h < 1 || w < 1 || h > MaxCheckpointSide || w > MaxCheckpointSide {
		return nil, fmt.Errorf("pipeline: checkpoint mask %dx%d out of bounds (max side %d)", h, w, MaxCheckpointSide)
	}
	ck.Mask, err = ReadMatData(br, h, w)
	if err != nil {
		return nil, fmt.Errorf("pipeline: truncated checkpoint payload (%dx%d): %w", h, w, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("pipeline: trailing data after checkpoint payload")
	}
	return ck, nil
}

// WriteCheckpointFile replaces path with the serialised checkpoint
// atomically — a temporary file in the same directory, then a rename —
// so a kill mid-write leaves the previous file intact and concurrent
// writers never leave a torn one under the final name.
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = WriteCheckpoint(f, ck)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadCheckpointFile reads the checkpoint file at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

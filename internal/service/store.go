package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/pipeline"

	"encoding/json"
)

// The job store makes the queue durable: every job's submission and
// every later state transition is journalled to <id>.job (a versioned
// one-record file), and each stage checkpoint the flow emits is
// journalled to <id>.ckpt (the pipeline checkpoint encoding). All
// writes are atomic tmp+rename, so a server killed mid-write leaves
// either the old record or the new one, never a torn file. On restart
// the server replays the directory: terminal jobs reappear as history
// (their result payloads are not persisted — Result returns 409 for
// them), and queued/running jobs re-enter the queue, running ones
// resuming from their last journalled checkpoint.

// jobMagic versions the job-record encoding.
const jobMagic = "mgsilt-job v1"

// maxJobRecordBytes bounds a record accepted from disk (a spec with an
// uploaded layout is bounded by maxBodyBytes; leave headroom).
const maxJobRecordBytes = maxBodyBytes + 4096

// jobRecord is the persisted form of a job (everything needed to
// resurrect its queue entry and history; results stay in memory only).
type jobRecord struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	State       State     `json:"state"`
	Error       string    `json:"error,omitempty"`
	Attempts    int       `json:"attempts"`
	ResumedFrom *int      `json:"resumed_from,omitempty"`
	Created     time.Time `json:"created_at"`
	Started     time.Time `json:"started_at"`
	Finished    time.Time `json:"finished_at"`

	// unknown is set by parseJobRecord when the record names a field this
	// build does not have, such as a retired spec knob: replay fails the
	// job instead of running it without that knob. Never journalled.
	unknown error
}

// recordOf snapshots a job into its persisted form. Caller holds s.mu.
func recordOf(j *job) jobRecord {
	rec := jobRecord{
		ID: j.id, Spec: j.spec, State: j.state, Error: j.err,
		Attempts: j.attempts, Created: j.created,
		Started: j.started, Finished: j.finished,
	}
	if j.resumedFrom != nil {
		v := *j.resumedFrom
		rec.ResumedFrom = &v
	}
	return rec
}

// encodeJobRecord renders the on-disk form: magic line + one JSON line.
func encodeJobRecord(rec jobRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(jobMagic)
	buf.WriteByte('\n')
	buf.Write(body)
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// parseJobRecord parses and validates the on-disk form. It is the
// FuzzJobStore entry point, so it must reject every malformed input
// with an error, never a panic.
func parseJobRecord(data []byte) (jobRecord, error) {
	var rec jobRecord
	if len(data) > maxJobRecordBytes {
		return rec, fmt.Errorf("service: job record too large (%d bytes)", len(data))
	}
	magic, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok || string(magic) != jobMagic {
		return rec, fmt.Errorf("service: not a job record (header %q)", magic)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&rec); err != nil {
		return rec, fmt.Errorf("service: bad job record: %w", err)
	}
	strict := json.NewDecoder(bytes.NewReader(body))
	strict.DisallowUnknownFields()
	if err := strict.Decode(&jobRecord{}); err != nil {
		rec.unknown = fmt.Errorf("service: journalled job cannot run on this build: %w", err)
	}
	if err := validateJobRecord(rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// validateJobRecord checks the structural invariants a record must
// satisfy before it may touch the jobs map or the filesystem (the ID
// becomes a filename).
func validateJobRecord(rec jobRecord) error {
	if n, err := jobIDNum(rec.ID); err != nil || n < 1 {
		return fmt.Errorf("service: bad job id %q in record", rec.ID)
	}
	switch rec.State {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
	default:
		return fmt.Errorf("service: bad state %q in record %s", rec.State, rec.ID)
	}
	if rec.Attempts < 0 {
		return fmt.Errorf("service: negative attempts in record %s", rec.ID)
	}
	return nil
}

// jobIDNum parses the numeric part of a job id ("j000042" → 42),
// rejecting anything that is not exactly Submit's shape (so a hostile
// record can never smuggle path separators into a filename).
func jobIDNum(id string) (int, error) {
	num, ok := strings.CutPrefix(id, "j")
	if !ok || len(num) < 6 || len(num) > 18 {
		return 0, fmt.Errorf("service: bad job id %q", id)
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("service: bad job id %q", id)
		}
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// jobStore is the journal directory.
type jobStore struct {
	dir string
}

func openJobStore(dir string) (*jobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	return &jobStore{dir: dir}, nil
}

// writeAtomic writes data under name via tmp+rename.
func (st *jobStore) writeAtomic(name string, write func(*os.File) error) error {
	f, err := os.CreateTemp(st.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), filepath.Join(st.dir, name)); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// saveRecord journals one job state.
func (st *jobStore) saveRecord(rec jobRecord) error {
	if err := validateJobRecord(rec); err != nil {
		return err
	}
	data, err := encodeJobRecord(rec)
	if err != nil {
		return err
	}
	return st.writeAtomic(rec.ID+".job", func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// saveCheckpoint journals a job's latest stage snapshot.
func (st *jobStore) saveCheckpoint(id string, ck *core.Checkpoint) error {
	if _, err := jobIDNum(id); err != nil {
		return err
	}
	return pipeline.WriteCheckpointFile(filepath.Join(st.dir, id+".ckpt"), ck)
}

// load replays the journal directory: records sorted by job number,
// plus each job's last checkpoint when one exists and parses. Corrupt
// or foreign files are skipped (the journal must survive a crash that
// raced a write), not fatal.
func (st *jobStore) load() ([]jobRecord, map[string]*core.Checkpoint, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, nil, err
	}
	var recs []jobRecord
	cks := make(map[string]*core.Checkpoint)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".job") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			continue
		}
		rec, err := parseJobRecord(data)
		if err != nil || rec.ID+".job" != name {
			continue
		}
		recs = append(recs, rec)
		if ck, err := pipeline.ReadCheckpointFile(filepath.Join(st.dir, rec.ID+".ckpt")); err == nil {
			cks[rec.ID] = ck
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		a, _ := jobIDNum(recs[i].ID)
		b, _ := jobIDNum(recs[j].ID)
		return a < b
	})
	return recs, cks, nil
}

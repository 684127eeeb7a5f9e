package main

import (
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A misspelt or retired experiment anywhere in the list, or a retired
// solver, fails before the first experiment runs: nothing is printed
// and no document is written.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "f.json")
	for _, args := range [][]string{
		{"-experiment", "cache,tabel1", "-json", jsonPath},
		{"-experiment", "cache", "-scale", "huge", "-json", jsonPath},
		{"-experiment", "table1,solvers", "-json", jsonPath},
		{"-experiment", "cache", "-solver", "admm", "-json", jsonPath},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: ran something:\n%s", args, out.String())
		}
		if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
			t.Errorf("%v: wrote %s", args, jsonPath)
		}
	}
}

// A run that fails after profiling started still stops the profiler,
// so the -cpuprofile file is a complete gzip stream.
func TestFailedRunCompletesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	args := []string{"-experiment", "cache", "-cpuprofile", prof, "-json", filepath.Join(dir, "missing", "f.json")}
	if err := run(args, io.Discard); err == nil {
		t.Fatal("writing -json into a missing directory succeeded")
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		t.Fatalf("profile is truncated: %v", err)
	}
}

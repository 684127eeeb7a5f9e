package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs iltrun with args and returns what it printed.
func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String()
}

// The tile cache and lockstep batching never move a byte of the mask: a
// repeated-cell run through both writes the file a plain run writes.
// (At N=32 the clip prints nothing; N=64 prints.)
func TestCacheAndBatchMaskBytesEqual(t *testing.T) {
	for _, n := range []string{"32", "64"} {
		dir := t.TempDir()
		base := []string{"-method", "ours", "-n", n, "-iters", "4", "-seed", "7", "-devices", "2", "-repeat-cells", "-stage-times=false"}
		plain, batched := filepath.Join(dir, "plain.raw"), filepath.Join(dir, "batched.raw")
		runArgs(t, append(base, "-mask-raw", plain)...)
		out := runArgs(t, append(base, "-cache-mb", "64", "-batch-size", "4", "-mask-raw", batched)...)

		want, err := os.ReadFile(plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(batched)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("N=%s: cached and batched mask file differs from the plain run's", n)
		}
		// The batch line counts lockstep batches; nothing is flushed.
		var line string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "batch ") {
				line = l
			}
		}
		if !strings.Contains(line, " batches (") || strings.Contains(line, "flush") {
			t.Fatalf("N=%s: batch line %q, want it to count batches", n, line)
		}
		if !strings.Contains(out, "merged;") {
			t.Fatalf("N=%s: no cache line in\n%s", n, out)
		}
	}
}

// -method fullchip is Table 1's Full-chip whichever way the solver is
// named: the default and an explicit -solver multilevel run the same
// 2 + log2(clip/N) pyramid and write the same mask file.
func TestFullChipMultilevelIsTable1FullChip(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-method", "fullchip", "-n", "64", "-iters", "4", "-seed", "7", "-stage-times=false"}
	def, explicit := filepath.Join(dir, "default.raw"), filepath.Join(dir, "explicit.raw")
	runArgs(t, append(base, "-mask-raw", def)...)
	runArgs(t, append(base, "-solver", "multilevel", "-mask-raw", explicit)...)
	want, err := os.ReadFile(def)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("-solver multilevel wrote a different full-chip mask than the default")
	}
}

// -list-solvers prints the registry, one name per line.
func TestListSolvers(t *testing.T) {
	const want = "levelset\nmultilevel\npixel\n"
	if got := runArgs(t, "-list-solvers"); got != want {
		t.Fatalf("-list-solvers printed\n%s\nwant\n%s", got, want)
	}
}

// Bad arguments are errors, not runs.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-method", "no-such-method", "-n", "32"},
		{"-solver", "no-such-solver", "-n", "32"},
		{"-solver", "curvy", "-n", "32"}, // a retired backend
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error; printed\n%s", args, out.String())
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a stderr the test reads while run writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// retiredFlags returns the argument vectors of ../testdata/retired-flags.txt.
func retiredFlags(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open("../testdata/retired-flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, strings.Fields(line))
		}
	}
	if len(out) == 0 {
		t.Fatal("no retired flags listed")
	}
	return out
}

// Arguments that must not start a server: -h, a retired flag, and the
// server-wide job defaults that jobs now set only per submit (iltrun
// still accepts all three, so they are not in the shared list).
func TestBadArguments(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, []string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
	jobDefaults := [][]string{{"-solver", "pixel"}, {"-coarse-correct"}, {"-drop-tol", "0.05"}}
	for _, args := range append(retiredFlags(t), jobDefaults...) {
		if err := run(ctx, args, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: %v, want an unknown-flag error", args, err)
		}
	}
}

// Started on an ephemeral port, the server answers /healthz and run
// returns nil once its context is cancelled.
func TestServeUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, &stderr) }()

	addr := listeningOn(t, &stderr, done)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(stderr.String(), "iltserver: bye") {
		t.Errorf("no shutdown line in\n%s", stderr.String())
	}
}

// listeningOn waits for run's "listening on <addr>" line and returns addr.
func listeningOn(t *testing.T, stderr *syncBuffer, done <-chan error) string {
	t.Helper()
	const marker = "listening on "
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, stderr.String())
		default:
		}
		if _, rest, ok := strings.Cut(stderr.String(), marker); ok {
			if addr, _, ok := strings.Cut(rest, " "); ok {
				return addr
			}
		}
	}
	t.Fatalf("never listened:\n%s", stderr.String())
	return ""
}

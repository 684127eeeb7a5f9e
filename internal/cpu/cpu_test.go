package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVX2MatchesKernel: on Linux the kernel lists avx2 among a
// CPU's flags only when the CPU has it and the OS saves the YMM state,
// which is the question HasAVX2 answers from CPUID and XGETBV. Off
// amd64 the answer is false.
func TestHasAVX2MatchesKernel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if HasAVX2() {
			t.Fatal("HasAVX2 is true off amd64")
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			want = strings.Contains(" "+flags+" ", " avx2 ")
			break
		}
	}
	if got := HasAVX2(); got != want {
		t.Fatalf("HasAVX2() = %v, the kernel's CPU flags say %v", got, want)
	}
}

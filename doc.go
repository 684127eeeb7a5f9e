// Package mgsilt is a Go reproduction of "Efficient ILT via
// Multigrid-Schwartz Method" (Sun et al., DAC 2024). It uses the
// standard library only; on amd64 six FFT butterfly loops run as AVX2
// assembly twins, bit-identical to the Go loops.
//
// The library lives under internal/ (see README.md for the package
// map); the public surface of this repository is its executables
// (cmd/...), among them cmd/iltbench, which regenerates every table and
// figure of the paper's evaluation, and its runnable examples
// (examples/...). DESIGN.md documents the system inventory
// and the substitutions made for proprietary dependencies;
// EXPERIMENTS.md records paper-vs-measured outcomes.
package mgsilt

// Package cpu answers the one CPU question the numeric packages ask: may
// they run their AVX2 assembly twins. fft, litho and opt each read
// HasAVX2 once, at init, into a variable of their own.
package cpu

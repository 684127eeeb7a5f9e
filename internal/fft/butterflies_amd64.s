#include "textflag.h"

// AVX2 twins of the butterfly loops that plans of more than four points
// run, over a strip of columns (columns.go) and in a row (fft.go): the
// gathering first passes, the in-place radix-4 passes between the first
// and the last (radix4Rows, radix4Pass) and the storing last passes,
// which apply the inverse 1/n; and the packing and reflection loops of
// the real transforms (real.go). A plan of at most four points runs the
// Go loops. A Y register holds two complex128 as (re, im, re, im). The
// strip loops run two adjacent columns per vector under a broadcast
// twiddle; the in-row loops run two consecutive butterflies per vector,
// each lane pair under its own twiddle. An odd last column or butterfly goes through the same
// arithmetic with X-register loads and stores, which zero the upper lanes.
//
// Every element sees the IEEE operations of the Go loop in its order:
// VMULPD for each product, VADDPD/VSUBPD for each sum, no fused
// multiply-add, so every result bit is the Go loop's.

// CMUL sets t to the lane-wise complex product w·y, wr and wi holding
// the real and imaginary parts of w in both lanes of each complex128.
// The even lane gets wr·yr − wi·yi and the odd lane wr·yi + wi·yr, the
// products and sums of the Go loops. tmp is clobbered.
#define CMUL(wr, wi, y, t, tmp) \
	VMULPD    wr, y, t;     \
	VPERMILPD $5, y, tmp;   \
	VMULPD    wi, tmp, tmp; \
	VADDSUBPD tmp, t, t

// RADIX4 is the fused radix-4 butterfly of radix4Pass and radix4Rows on
// Y0…Y3 = x0…x3, in place: the size/2 stage couples (x0,x1) and (x2,x3)
// under the twiddle in Y10/Y11, the size stage (a0,a2) under Y12/Y13 and
// (a1,a3) under Y14/Y15. Y4…Y9 are clobbered.
#define RADIX4 \
	CMUL(Y10, Y11, Y1, Y4, Y5); \
	VADDPD Y4, Y0, Y6;          \
	VSUBPD Y4, Y0, Y7;          \
	CMUL(Y10, Y11, Y3, Y4, Y5); \
	VADDPD Y4, Y2, Y8;          \
	VSUBPD Y4, Y2, Y9;          \
	CMUL(Y12, Y13, Y8, Y4, Y5); \
	VADDPD Y4, Y6, Y0;          \
	VSUBPD Y4, Y6, Y2;          \
	CMUL(Y14, Y15, Y9, Y4, Y5); \
	VADDPD Y4, Y7, Y1;          \
	VSUBPD Y4, Y7, Y3

// RADIX2 is the radix-2 butterfly of radix2Pass and radix2Rows on
// Y0 = x[k] and Y1 = x[k+half], in place, under the twiddle in Y14/Y15.
// Y2 and Y3 are clobbered.
#define RADIX2 \
	CMUL(Y14, Y15, Y1, Y2, Y3); \
	VSUBPD Y2, Y0, Y1;          \
	VADDPD Y2, Y0, Y0

// BASE4 is the butterfly of base4Rows on Y0…Y3 = a0…a3, in place, under
// the twiddle tw[1] in Y14/Y15. Y4…Y9 are clobbered.
#define BASE4 \
	VADDPD Y1, Y0, Y4;          \
	VSUBPD Y1, Y0, Y5;          \
	VADDPD Y3, Y2, Y6;          \
	VSUBPD Y3, Y2, Y7;          \
	CMUL(Y14, Y15, Y7, Y8, Y9); \
	VADDPD Y6, Y4, Y0;          \
	VSUBPD Y6, Y4, Y2;          \
	VADDPD Y8, Y5, Y1;          \
	VSUBPD Y8, Y5, Y3

// RADIX3 is the 3-point DFT of radix3Rows on Y0…Y2 = x0…x2, in place,
// with c in Y14, s in Y15 and the sign bit of every lane in Y13. With
// m = x0 + c·(x1+x2) and v = s·(x1−x2) swapped to (vi, vr), one
// VADDSUBPD gives (mr − vi, mi + vr); the same over −(vi, vr) gives
// (mr + vi, mi − vr), since x − (−y) is x + y exactly. Y3…Y5 are
// clobbered.
#define RADIX3 \
	VADDPD    Y2, Y1, Y3;  \
	VSUBPD    Y2, Y1, Y4;  \
	VMULPD    Y14, Y3, Y5; \
	VADDPD    Y5, Y0, Y5;  \
	VMULPD    Y15, Y4, Y4; \
	VADDPD    Y3, Y0, Y0;  \
	VPERMILPD $5, Y4, Y4;  \
	VADDSUBPD Y4, Y5, Y1;  \
	VXORPD    Y13, Y4, Y4; \
	VADDSUBPD Y4, Y5, Y2

// func radix4RowsAVX2(x []complex128, nb int, tw []complex128, size int)
TEXT ·radix4RowsAVX2(SB), NOSPLIT, $0-64
	MOVQ  x_base+0(FP), DI
	MOVQ  x_len+8(FP), R14
	SHLQ  $4, R14
	ADDQ  DI, R14         // R14: end of x
	MOVQ  nb+24(FP), R8
	SHLQ  $4, R8          // R8: bytes of one strip row
	MOVQ  R8, R11
	ANDQ  $-32, R11       // R11: bytes of the column pairs
	MOVQ  tw_base+32(FP), DX
	MOVQ  size+56(FP), R13
	SHRQ  $2, R13
	MOVQ  R13, R9
	IMULQ R8, R9          // R9: bytes of a quarter of the rows of a block
	SHLQ  $4, R13         // R13: bytes of a quarter of the twiddles
	LEAQ  (DX)(R13*1), R12 // R12: &tw[quarter]
	LEAQ  (R9)(R9*2), R10 // R10: bytes of three quarters

block4:
	LEAQ (DI)(R9*4), AX
	CMPQ AX, R14
	JA   done4
	MOVQ DI, SI           // SI: row base+j
	XORQ AX, AX           // AX: 16·j

twiddle4:
	CMPQ         AX, R13
	JAE          next4
	VBROADCASTSD (DX)(AX*2), Y10
	VBROADCASTSD 8(DX)(AX*2), Y11
	VBROADCASTSD (DX)(AX*1), Y12
	VBROADCASTSD 8(DX)(AX*1), Y13
	VBROADCASTSD (R12)(AX*1), Y14
	VBROADCASTSD 8(R12)(AX*1), Y15
	MOVQ         SI, BX
	LEAQ         (SI)(R11*1), CX

pairs4:
	CMPQ    BX, CX
	JAE     tail4
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R9*1), Y1
	VMOVUPD (BX)(R9*2), Y2
	VMOVUPD (BX)(R10*1), Y3
	RADIX4
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	VMOVUPD Y2, (BX)(R9*2)
	VMOVUPD Y3, (BX)(R10*1)
	ADDQ    $32, BX
	JMP     pairs4

tail4:
	TESTQ   $16, R8
	JZ      step4
	VMOVUPD (BX), X0
	VMOVUPD (BX)(R9*1), X1
	VMOVUPD (BX)(R9*2), X2
	VMOVUPD (BX)(R10*1), X3
	RADIX4
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R9*1)
	VMOVUPD X2, (BX)(R9*2)
	VMOVUPD X3, (BX)(R10*1)

step4:
	ADDQ R8, SI
	ADDQ $16, AX
	JMP  twiddle4

next4:
	LEAQ (SI)(R10*1), DI  // SI ended a quarter into the block
	JMP  block4

done4:
	VZEROUPPER
	RET

// func radix4PassAVX2(x []complex128, tw []complex128, size int)
TEXT ·radix4PassAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R14
	SHLQ $4, R14
	ADDQ DI, R14          // R14: end of x
	MOVQ tw_base+24(FP), DX
	MOVQ size+48(FP), R9
	SHRQ $2, R9
	SHLQ $4, R9           // R9: bytes of a quarter, of x and of tw alike
	MOVQ R9, R11
	ANDQ $-32, R11        // R11: bytes of the butterfly pairs
	LEAQ (DX)(R9*1), R12  // R12: &tw[quarter]
	LEAQ (R9)(R9*2), R10  // R10: bytes of three quarters

blockp4:
	LEAQ (DI)(R9*4), CX
	CMPQ CX, R14
	JA   donep4
	XORQ AX, AX           // AX: 16·j

pairsp4:
	CMPQ        AX, R11
	JAE         tailp4
	VMOVUPD     (DX)(AX*2), X4
	VINSERTF128 $1, 32(DX)(AX*2), Y4, Y4
	VMOVDDUP    Y4, Y10
	VPERMILPD   $15, Y4, Y11
	VMOVUPD     (DX)(AX*1), Y4
	VMOVDDUP    Y4, Y12
	VPERMILPD   $15, Y4, Y13
	VMOVUPD     (R12)(AX*1), Y4
	VMOVDDUP    Y4, Y14
	VPERMILPD   $15, Y4, Y15
	LEAQ        (DI)(AX*1), BX
	VMOVUPD     (BX), Y0
	VMOVUPD     (BX)(R9*1), Y1
	VMOVUPD     (BX)(R9*2), Y2
	VMOVUPD     (BX)(R10*1), Y3
	RADIX4
	VMOVUPD     Y0, (BX)
	VMOVUPD     Y1, (BX)(R9*1)
	VMOVUPD     Y2, (BX)(R9*2)
	VMOVUPD     Y3, (BX)(R10*1)
	ADDQ        $32, AX
	JMP         pairsp4

tailp4:
	CMPQ         AX, R9
	JAE          nextp4
	VBROADCASTSD (DX)(AX*2), Y10
	VBROADCASTSD 8(DX)(AX*2), Y11
	VBROADCASTSD (DX)(AX*1), Y12
	VBROADCASTSD 8(DX)(AX*1), Y13
	VBROADCASTSD (R12)(AX*1), Y14
	VBROADCASTSD 8(R12)(AX*1), Y15
	LEAQ         (DI)(AX*1), BX
	VMOVUPD      (BX), X0
	VMOVUPD      (BX)(R9*1), X1
	VMOVUPD      (BX)(R9*2), X2
	VMOVUPD      (BX)(R10*1), X3
	RADIX4
	VMOVUPD      X0, (BX)
	VMOVUPD      X1, (BX)(R9*1)
	VMOVUPD      X2, (BX)(R9*2)
	VMOVUPD      X3, (BX)(R10*1)

nextp4:
	MOVQ CX, DI
	JMP  blockp4

donep4:
	VZEROUPPER
	RET

// func unzipScaledAVX2(out0, out1 []float64, z []complex128, s float64)
//
// len(z) is a multiple of 4. Every part is multiplied by s, then the
// real parts go to out0 and the imaginary parts to out1.
TEXT ·unzipScaledAVX2(SB), NOSPLIT, $0-80
	MOVQ         out0_base+0(FP), DI
	MOVQ         out1_base+24(FP), R8
	MOVQ         z_base+48(FP), SI
	MOVQ         z_len+56(FP), CX
	SHLQ         $3, CX           // CX: bytes of out0 and of out1 written
	VBROADCASTSD s+72(FP), Y6
	XORQ         AX, AX

quadu:
	CMPQ      AX, CX
	JAE       doneu
	VMULPD    (SI)(AX*2), Y6, Y0  // (r0, i0, r1, i1)·s
	VMULPD    32(SI)(AX*2), Y6, Y1 // (r2, i2, r3, i3)·s
	VUNPCKLPD Y1, Y0, Y2          // (r0, r2, r1, r3)
	VUNPCKHPD Y1, Y0, Y3          // (i0, i2, i1, i3)
	VPERMPD   $0xD8, Y2, Y2
	VPERMPD   $0xD8, Y3, Y3
	VMOVUPD   Y2, (DI)(AX*1)
	VMOVUPD   Y3, (R8)(AX*1)
	ADDQ      $32, AX
	JMP       quadu

doneu:
	VZEROUPPER
	RET

// func mirrorPairsAVX2(out0, out1, a, m []complex128)
//
// len(out0) = n is even. With b = m[n−1−i] (the mirror, read backwards:
// each round reads the pair of sources ending where the last round's
// began and swaps its halves): out0[i] = (½(ar+br), ½(ai−bi)) and,
// unless out1 is empty, out1[i] = (½(ai+bi), ½(br−ar)).
TEXT ·mirrorPairsAVX2(SB), NOSPLIT, $0-96
	MOVQ         out0_base+0(FP), DI
	MOVQ         out0_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of out0
	MOVQ         out1_base+24(FP), R8
	MOVQ         out1_len+32(FP), R9
	MOVQ         a_base+48(FP), SI
	MOVQ         m_base+72(FP), DX
	MOVQ         $0x3fe0000000000000, R10
	MOVQ         R10, X7
	VBROADCASTSD X7, Y7           // Y7: 0.5
	LEAQ         -32(CX), BX      // BX: offset of the last mirror pair
	XORQ         AX, AX

pairsh:
	CMPQ     AX, CX
	JAE      doneh
	VMOVUPD  (SI)(AX*1), Y0       // a
	VPERMPD  $0x4E, (DX)(BX*1), Y1 // b
	VADDPD   Y1, Y0, Y2           // a + b
	VSUBPD   Y1, Y0, Y3           // a − b
	VBLENDPD $10, Y3, Y2, Y4
	VMULPD   Y7, Y4, Y4
	VMOVUPD  Y4, (DI)(AX*1)
	TESTQ    R9, R9
	JZ       nexth
	VSUBPD   Y0, Y1, Y5           // b − a
	VBLENDPD $5, Y5, Y2, Y5       // (br − ar, ai + bi)
	VPERMILPD $5, Y5, Y5
	VMULPD   Y7, Y5, Y5
	VMOVUPD  Y5, (R8)(AX*1)

nexth:
	ADDQ $32, AX
	SUBQ $32, BX
	JMP  pairsh

doneh:
	VZEROUPPER
	RET

// func reflectAVX2(dst, src []complex128)
//
// len(dst) = n is even: dst[i] = conj(src[n−1−i]). Each round reads the
// pair of sources ending where the last round's began, swaps its halves
// and flips the sign bit of the imaginary parts.
TEXT ·reflectAVX2(SB), NOSPLIT, $0-48
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	SHLQ     $4, CX               // CX: bytes of dst
	MOVQ     src_base+24(FP), SI
	VPCMPEQQ Y7, Y7, Y7
	VPSLLQ   $63, Y7, Y7
	VXORPD   Y6, Y6, Y6
	VBLENDPD $10, Y7, Y6, Y7      // Y7: the sign bit of the odd lanes
	LEAQ     -32(CX), BX          // BX: offset of the last source pair
	XORQ     AX, AX

pairsr:
	CMPQ    AX, CX
	JAE     doner
	VPERMPD $0x4E, (SI)(BX*1), Y0
	VXORPD  Y7, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $32, BX
	JMP     pairsr

doner:
	VZEROUPPER
	RET

// The fused first and last passes. A gathering first pass reads each
// butterfly's inputs from their digit-reversed source positions through
// the plan's perm; a storing last pass spans the whole transform and
// writes its results to the destination, each part multiplied by s when
// scaled is set. Between the loads and the stores the arithmetic is the
// macros above, so every bit is that of the Go loop.

// GATHER loads src[perm[a]] into the low and src[perm[b]] into the high
// half of y (x its X name), a and b the byte offsets off and off2 of the
// perm entries from R8, src at SI. R9 and R10 are clobbered.
#define GATHER(off, off2, y, x) \
	MOVQ        off(R8), R9;          \
	SHLQ        $4, R9;               \
	MOVQ        off2(R8), R10;        \
	SHLQ        $4, R10;              \
	VMOVUPD     (SI)(R9*1), x;        \
	VINSERTF128 $1, (SI)(R10*1), y, y

// GATHER1 loads src[perm[a]] into x, the perm entry off bytes from R8.
#define GATHER1(off, x) \
	MOVQ    off(R8), R9;   \
	SHLQ    $4, R9;        \
	VMOVUPD (SI)(R9*1), x

// PAIRED is GATHER over a packed real pair: complex(re[j], im[j]) for
// j = perm[a] and perm[b], re at SI and im at DX. X12 is clobbered.
#define PAIRED(off, off2, y, x) \
	MOVQ        off(R8), R9;           \
	MOVQ        off2(R8), R10;         \
	VMOVSD      (SI)(R9*8), x;         \
	VMOVHPD     (DX)(R9*8), x, x;      \
	VMOVSD      (SI)(R10*8), X12;      \
	VMOVHPD     (DX)(R10*8), X12, X12; \
	VINSERTF128 $1, X12, y, y

// PAIRED1 is GATHER1 over a packed real pair.
#define PAIRED1(off, x) \
	MOVQ    off(R8), R9;      \
	VMOVSD  (SI)(R9*8), x;    \
	VMOVHPD (DX)(R9*8), x, x

// STORE4 writes Y0…Y3 to dst[k…k+7], k the butterfly pair at AX bytes
// into DI, transposed back from strip order (Yi holds elements i and i+4).
#define STORE4 \
	VPERM2F128 $0x20, Y1, Y0, Y4; \
	VPERM2F128 $0x20, Y3, Y2, Y5; \
	VPERM2F128 $0x31, Y1, Y0, Y6; \
	VPERM2F128 $0x31, Y3, Y2, Y7; \
	VMOVUPD    Y4, (DI)(AX*1);    \
	VMOVUPD    Y5, 32(DI)(AX*1);  \
	VMOVUPD    Y6, 64(DI)(AX*1);  \
	VMOVUPD    Y7, 96(DI)(AX*1)

// STORE3 writes the two triples in Y0…Y2 to dst[k…k+5], k at AX bytes
// into DI: (X0, X1) of the first, (X2, X0') across, (X1', X2') of the
// second.
#define STORE3 \
	VPERM2F128 $0x20, Y1, Y0, Y4; \
	VBLENDPD   $0x0C, Y0, Y2, Y5; \
	VPERM2F128 $0x31, Y2, Y1, Y6; \
	VMOVUPD    Y4, (DI)(AX*1);    \
	VMOVUPD    Y5, 32(DI)(AX*1);  \
	VMOVUPD    Y6, 64(DI)(AX*1)

// SIGNS sets Y13 to the sign bit of every lane, as RADIX3 needs.
#define SIGNS \
	VPCMPEQQ Y13, Y13, Y13; \
	VPSLLQ   $63, Y13, Y13

// func base4GatherAVX2(dst, src []complex128, perm []int, tw []complex128)
//
// base4Pass with its inputs read through perm: butterflies b and b+1
// load (src[perm[4b+i]], src[perm[4b+4+i]]) into Yi, run BASE4 as two
// strip columns and go to dst[4b…4b+7] transposed back. A last lone
// butterfly goes through X registers.
TEXT ·base4GatherAVX2(SB), NOSPLIT, $0-96
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of dst
	MOVQ         src_base+24(FP), SI
	MOVQ         perm_base+48(FP), R8
	MOVQ         tw_base+72(FP), DX
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	MOVQ         CX, R11
	ANDQ         $-128, R11       // R11: bytes of the butterfly pairs
	XORQ         AX, AX

pairsg4:
	CMPQ   AX, R11
	JAE    tailg4
	GATHER(0, 32, Y0, X0)
	GATHER(8, 40, Y1, X1)
	GATHER(16, 48, Y2, X2)
	GATHER(24, 56, Y3, X3)
	BASE4
	STORE4
	ADDQ   $128, AX
	ADDQ   $64, R8
	JMP    pairsg4

tailg4:
	CMPQ    AX, CX
	JAE     doneg4
	GATHER1(0, X0)
	GATHER1(8, X1)
	GATHER1(16, X2)
	GATHER1(24, X3)
	BASE4
	VMOVUPD X0, (DI)(AX*1)
	VMOVUPD X1, 16(DI)(AX*1)
	VMOVUPD X2, 32(DI)(AX*1)
	VMOVUPD X3, 48(DI)(AX*1)

doneg4:
	VZEROUPPER
	RET

// func base4GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128)
//
// base4GatherAVX2 over the packed row re + i·im.
TEXT ·base4GatherPairAVX2(SB), NOSPLIT, $0-120
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of dst
	MOVQ         re_base+24(FP), SI
	MOVQ         perm_base+72(FP), R8
	MOVQ         tw_base+96(FP), DX
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	MOVQ         im_base+48(FP), DX
	MOVQ         CX, R11
	ANDQ         $-128, R11       // R11: bytes of the butterfly pairs
	XORQ         AX, AX

pairsp4g:
	CMPQ   AX, R11
	JAE    tailp4g
	PAIRED(0, 32, Y0, X0)
	PAIRED(8, 40, Y1, X1)
	PAIRED(16, 48, Y2, X2)
	PAIRED(24, 56, Y3, X3)
	BASE4
	STORE4
	ADDQ   $128, AX
	ADDQ   $64, R8
	JMP    pairsp4g

tailp4g:
	CMPQ    AX, CX
	JAE     donep4g
	PAIRED1(0, X0)
	PAIRED1(8, X1)
	PAIRED1(16, X2)
	PAIRED1(24, X3)
	BASE4
	VMOVUPD X0, (DI)(AX*1)
	VMOVUPD X1, 16(DI)(AX*1)
	VMOVUPD X2, 32(DI)(AX*1)
	VMOVUPD X3, 48(DI)(AX*1)

donep4g:
	VZEROUPPER
	RET

// func radix3GatherAVX2(dst, src []complex128, perm []int, tw []complex128)
//
// radix3Pass with its inputs read through perm: triples q and q+1 load
// (src[perm[3q+i]], src[perm[3q+3+i]]) into Yi, run RADIX3 as two strip
// columns and go to dst[3q…3q+5] through STORE3. A last lone triple goes
// through X registers.
TEXT ·radix3GatherAVX2(SB), NOSPLIT, $0-96
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of dst
	MOVQ         src_base+24(FP), SI
	MOVQ         perm_base+48(FP), R8
	MOVQ         tw_base+72(FP), DX
	VBROADCASTSD (DX), Y14
	VBROADCASTSD 8(DX), Y15
	SIGNS
	XORQ         AX, AX

pairsg3:
	LEAQ   96(AX), BX
	CMPQ   BX, CX
	JA     tailg3
	GATHER(0, 24, Y0, X0)
	GATHER(8, 32, Y1, X1)
	GATHER(16, 40, Y2, X2)
	RADIX3
	STORE3
	MOVQ   BX, AX
	ADDQ   $48, R8
	JMP    pairsg3

tailg3:
	LEAQ    48(AX), BX
	CMPQ    BX, CX
	JA      doneg3
	GATHER1(0, X0)
	GATHER1(8, X1)
	GATHER1(16, X2)
	RADIX3
	VMOVUPD X0, (DI)(AX*1)
	VMOVUPD X1, 16(DI)(AX*1)
	VMOVUPD X2, 32(DI)(AX*1)

doneg3:
	VZEROUPPER
	RET

// func radix3GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128)
//
// radix3GatherAVX2 over the packed row re + i·im.
TEXT ·radix3GatherPairAVX2(SB), NOSPLIT, $0-120
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of dst
	MOVQ         re_base+24(FP), SI
	MOVQ         perm_base+72(FP), R8
	MOVQ         tw_base+96(FP), DX
	VBROADCASTSD (DX), Y14
	VBROADCASTSD 8(DX), Y15
	MOVQ         im_base+48(FP), DX
	SIGNS
	XORQ         AX, AX

pairsp3g:
	LEAQ   96(AX), BX
	CMPQ   BX, CX
	JA     tailp3g
	PAIRED(0, 24, Y0, X0)
	PAIRED(8, 32, Y1, X1)
	PAIRED(16, 40, Y2, X2)
	RADIX3
	STORE3
	MOVQ   BX, AX
	ADDQ   $48, R8
	JMP    pairsp3g

tailp3g:
	LEAQ    48(AX), BX
	CMPQ    BX, CX
	JA      donep3g
	PAIRED1(0, X0)
	PAIRED1(8, X1)
	PAIRED1(16, X2)
	RADIX3
	VMOVUPD X0, (DI)(AX*1)
	VMOVUPD X1, 16(DI)(AX*1)
	VMOVUPD X2, 32(DI)(AX*1)

donep3g:
	VZEROUPPER
	RET

// SCALE4 multiplies Y0…Y3 by s when scaled is set (flag at off(FP) bytes,
// s at off2(FP)). Y4 is clobbered.
#define SCALE4(flag, sv, skip) \
	CMPB         flag, $0;   \
	JEQ          skip;       \
	VBROADCASTSD sv, Y4;     \
	VMULPD       Y4, Y0, Y0; \
	VMULPD       Y4, Y1, Y1; \
	VMULPD       Y4, Y2, Y2; \
	VMULPD       Y4, Y3, Y3

// SCALE2 multiplies Y0 and Y1 by s when scaled is set. Y4 is clobbered.
#define SCALE2(flag, sv, skip) \
	CMPB         flag, $0;   \
	JEQ          skip;       \
	VBROADCASTSD sv, Y4;     \
	VMULPD       Y4, Y0, Y0; \
	VMULPD       Y4, Y1, Y1

// func radix4StoreAVX2(dst, x, tw []complex128, s float64, scaled bool)
//
// radix4PassAVX2 over one block spanning x, storing to dst (which may be
// x) and scaling when scaled is set.
TEXT ·radix4StoreAVX2(SB), NOSPLIT, $0-81
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R9
	SHLQ $2, R9               // R9: bytes of a quarter, of x and of tw alike
	MOVQ tw_base+48(FP), DX
	MOVQ R9, R11
	ANDQ $-32, R11            // R11: bytes of the butterfly pairs
	LEAQ (DX)(R9*1), R12      // R12: &tw[quarter]
	LEAQ (R9)(R9*2), R10      // R10: bytes of three quarters
	MOVQ dst_base+0(FP), DI
	XORQ AX, AX               // AX: 16·j

pairss4:
	CMPQ        AX, R11
	JAE         tails4
	VMOVUPD     (DX)(AX*2), X4
	VINSERTF128 $1, 32(DX)(AX*2), Y4, Y4
	VMOVDDUP    Y4, Y10
	VPERMILPD   $15, Y4, Y11
	VMOVUPD     (DX)(AX*1), Y4
	VMOVDDUP    Y4, Y12
	VPERMILPD   $15, Y4, Y13
	VMOVUPD     (R12)(AX*1), Y4
	VMOVDDUP    Y4, Y14
	VPERMILPD   $15, Y4, Y15
	LEAQ        (SI)(AX*1), BX
	VMOVUPD     (BX), Y0
	VMOVUPD     (BX)(R9*1), Y1
	VMOVUPD     (BX)(R9*2), Y2
	VMOVUPD     (BX)(R10*1), Y3
	RADIX4
	SCALE4(scaled+80(FP), s+72(FP), putps4)

putps4:
	LEAQ    (DI)(AX*1), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	VMOVUPD Y2, (BX)(R9*2)
	VMOVUPD Y3, (BX)(R10*1)
	ADDQ    $32, AX
	JMP     pairss4

tails4:
	CMPQ         AX, R9
	JAE          dones4
	VBROADCASTSD (DX)(AX*2), Y10
	VBROADCASTSD 8(DX)(AX*2), Y11
	VBROADCASTSD (DX)(AX*1), Y12
	VBROADCASTSD 8(DX)(AX*1), Y13
	VBROADCASTSD (R12)(AX*1), Y14
	VBROADCASTSD 8(R12)(AX*1), Y15
	LEAQ         (SI)(AX*1), BX
	VMOVUPD      (BX), X0
	VMOVUPD      (BX)(R9*1), X1
	VMOVUPD      (BX)(R9*2), X2
	VMOVUPD      (BX)(R10*1), X3
	RADIX4
	SCALE4(scaled+80(FP), s+72(FP), putts4)

putts4:
	LEAQ    (DI)(AX*1), BX
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R9*1)
	VMOVUPD X2, (BX)(R9*2)
	VMOVUPD X3, (BX)(R10*1)

dones4:
	VZEROUPPER
	RET

// func radix2StoreAVX2(dst, x, tw []complex128, s float64, scaled bool)
//
// radix2Pass over one block spanning x, storing to dst (which may be
// x) and scaling when scaled is set.
TEXT ·radix2StoreAVX2(SB), NOSPLIT, $0-81
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R9
	SHLQ $3, R9               // R9: bytes of a half, of x and of tw alike
	MOVQ tw_base+48(FP), DX
	MOVQ R9, R11
	ANDQ $-32, R11            // R11: bytes of the butterfly pairs
	MOVQ dst_base+0(FP), DI
	XORQ AX, AX               // AX: 16·j

pairss2:
	CMPQ      AX, R11
	JAE       tails2
	VMOVUPD   (DX)(AX*1), Y4
	VMOVDDUP  Y4, Y14
	VPERMILPD $15, Y4, Y15
	LEAQ      (SI)(AX*1), BX
	VMOVUPD   (BX), Y0
	VMOVUPD   (BX)(R9*1), Y1
	RADIX2
	SCALE2(scaled+80(FP), s+72(FP), putps2)

putps2:
	LEAQ    (DI)(AX*1), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	ADDQ    $32, AX
	JMP     pairss2

tails2:
	CMPQ         AX, R9
	JAE          dones2
	VBROADCASTSD (DX)(AX*1), Y14
	VBROADCASTSD 8(DX)(AX*1), Y15
	LEAQ         (SI)(AX*1), BX
	VMOVUPD      (BX), X0
	VMOVUPD      (BX)(R9*1), X1
	RADIX2
	SCALE2(scaled+80(FP), s+72(FP), putts2)

putts2:
	LEAQ    (DI)(AX*1), BX
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R9*1)

dones2:
	VZEROUPPER
	RET

// func base4GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128)
//
// base4Rows with rows 4b…4b+3 of the strip computed from source rows
// perm[4b…4b+3], source row r starting r·stride elements into src. SI
// walks the columns of scratch row 4b; the source rows are read at
// their offsets from it.
TEXT ·base4GatherRowsAVX2(SB), NOSPLIT, $0-112
// SOURCE sets r to source row perm[k] of a strip gather, held as its
// offset from the scratch row at DI: src + perm[k]·stride·16 − DI, the
// perm entry off bytes from R12. It reads the arguments of the strip
// gathers, which share one frame layout, so it is defined inside the
// first of them.
#define SOURCE(off, r) \
	MOVQ  off(R12), r;          \
	IMULQ stride+56(FP), r;     \
	SHLQ  $4, r;                \
	ADDQ  src_base+32(FP), r;   \
	SUBQ  DI, r

	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), R14
	SHLQ         $4, R14
	ADDQ         DI, R14          // R14: end of x
	MOVQ         nb+24(FP), R8
	SHLQ         $4, R8           // R8: bytes of one strip row
	LEAQ         (R8)(R8*2), R10  // R10: bytes of three rows
	MOVQ         perm_base+64(FP), R12
	MOVQ         tw_base+88(FP), DX
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15

quadgr:
	LEAQ      (DI)(R8*4), AX
	CMPQ      AX, R14
	JA        donegr
	SOURCE(0, BX)
	SOURCE(8, CX)
	SOURCE(16, DX)
	SOURCE(24, R9)
	MOVQ      DI, SI
	MOVQ      R8, R11
	ANDQ      $-32, R11
	ADDQ      DI, R11         // R11: end of the column pairs

pairsgr:
	CMPQ    SI, R11
	JAE     tailgr
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (SI)(DX*1), Y2
	VMOVUPD (SI)(R9*1), Y3
	BASE4
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y2, (SI)(R8*2)
	VMOVUPD Y3, (SI)(R10*1)
	ADDQ    $32, SI
	JMP     pairsgr

tailgr:
	TESTQ   $16, R8
	JZ      nextgr
	VMOVUPD (SI)(BX*1), X0
	VMOVUPD (SI)(CX*1), X1
	VMOVUPD (SI)(DX*1), X2
	VMOVUPD (SI)(R9*1), X3
	BASE4
	VMOVUPD X0, (SI)
	VMOVUPD X1, (SI)(R8*1)
	VMOVUPD X2, (SI)(R8*2)
	VMOVUPD X3, (SI)(R10*1)

nextgr:
	ADDQ $32, R12
	MOVQ AX, DI
	JMP  quadgr

donegr:
	VZEROUPPER
	RET

// func radix3GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128)
//
// radix3Rows with rows 3q…3q+2 of the strip computed from source
// rows perm[3q…3q+2], read as in base4GatherRowsAVX2.
TEXT ·radix3GatherRowsAVX2(SB), NOSPLIT, $0-112
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), R14
	SHLQ         $4, R14
	ADDQ         DI, R14          // R14: end of x
	MOVQ         nb+24(FP), R8
	SHLQ         $4, R8           // R8: bytes of one strip row
	LEAQ         (R8)(R8*2), R10  // R10: bytes of a triple of rows
	MOVQ         perm_base+64(FP), R12
	MOVQ         tw_base+88(FP), DX
	VBROADCASTSD (DX), Y14
	VBROADCASTSD 8(DX), Y15
	SIGNS

triplegr:
	LEAQ      (DI)(R10*1), AX
	CMPQ      AX, R14
	JA        done3gr
	SOURCE(0, BX)
	SOURCE(8, CX)
	SOURCE(16, DX)
	MOVQ      DI, SI
	MOVQ      R8, R11
	ANDQ      $-32, R11
	ADDQ      DI, R11         // R11: end of the column pairs

pairs3gr:
	CMPQ    SI, R11
	JAE     tail3gr
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (SI)(CX*1), Y1
	VMOVUPD (SI)(DX*1), Y2
	RADIX3
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(R8*1)
	VMOVUPD Y2, (SI)(R8*2)
	ADDQ    $32, SI
	JMP     pairs3gr

tail3gr:
	TESTQ   $16, R8
	JZ      next3gr
	VMOVUPD (SI)(BX*1), X0
	VMOVUPD (SI)(CX*1), X1
	VMOVUPD (SI)(DX*1), X2
	RADIX3
	VMOVUPD X0, (SI)
	VMOVUPD X1, (SI)(R8*1)
	VMOVUPD X2, (SI)(R8*2)

next3gr:
	ADDQ $24, R12
	MOVQ AX, DI
	JMP  triplegr

done3gr:
	VZEROUPPER
	RET

// func radix4StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool)
//
// radix4RowsAVX2 over one block spanning the strip x, storing strip row
// i to dst[i·stride…] and scaling when scaled is set. R13 walks the
// columns of strip row j; the four destination rows are written at their
// offsets from it (BX, CX, R11, R12).
TEXT ·radix4StoreRowsAVX2(SB), NOSPLIT, $24-97
	MOVQ  x_len+40(FP), AX
	XORQ  DX, DX
	DIVQ  nb+56(FP)           // AX: rows of the strip
	SHRQ  $2, AX              // AX: a quarter of them
	MOVQ  AX, CX
	SHLQ  $4, CX
	MOVQ  CX, qtw-8(SP)       // bytes of a quarter of the twiddles
	MOVQ  stride+24(FP), CX
	SHLQ  $4, CX
	MOVQ  CX, ds-16(SP)       // bytes of a destination row
	IMULQ CX, AX
	MOVQ  AX, dq-24(SP)       // bytes of a quarter of the destination rows
	MOVQ  nb+56(FP), R8
	SHLQ  $4, R8              // R8: bytes of one strip row
	MOVQ  x_len+40(FP), R9
	SHLQ  $2, R9              // R9: bytes of a quarter of the strip
	LEAQ  (R9)(R9*2), R10     // R10: bytes of three quarters
	MOVQ  x_base+32(FP), SI   // SI: strip row j
	MOVQ  dst_base+0(FP), DI  // DI: destination row j
	XORQ  AX, AX              // AX: 16·j

twiddlesr4:
	CMPQ         AX, qtw-8(SP)
	JAE          doner4
	MOVQ         tw_base+64(FP), DX
	VBROADCASTSD (DX)(AX*2), Y10
	VBROADCASTSD 8(DX)(AX*2), Y11
	VBROADCASTSD (DX)(AX*1), Y12
	VBROADCASTSD 8(DX)(AX*1), Y13
	ADDQ         qtw-8(SP), DX
	VBROADCASTSD (DX)(AX*1), Y14
	VBROADCASTSD 8(DX)(AX*1), Y15
	MOVQ         DI, BX
	SUBQ         SI, BX           // BX: destination row j from strip row j
	MOVQ         dq-24(SP), DX
	LEAQ         (BX)(DX*1), CX   // CX: row j+quarter
	LEAQ         (BX)(DX*2), R11  // R11: row j+half
	LEAQ         (R11)(DX*1), R12 // R12: row j+3·quarter
	MOVQ         SI, R13
	MOVQ         R8, R14
	ANDQ         $-32, R14
	ADDQ         SI, R14          // R14: end of the column pairs

pairsr4:
	CMPQ    R13, R14
	JAE     tailr4
	VMOVUPD (R13), Y0
	VMOVUPD (R13)(R9*1), Y1
	VMOVUPD (R13)(R9*2), Y2
	VMOVUPD (R13)(R10*1), Y3
	RADIX4
	SCALE4(scaled+96(FP), s+88(FP), putpr4)

putpr4:
	VMOVUPD Y0, (R13)(BX*1)
	VMOVUPD Y1, (R13)(CX*1)
	VMOVUPD Y2, (R13)(R11*1)
	VMOVUPD Y3, (R13)(R12*1)
	ADDQ    $32, R13
	JMP     pairsr4

tailr4:
	TESTQ   $16, R8
	JZ      stepr4
	VMOVUPD (R13), X0
	VMOVUPD (R13)(R9*1), X1
	VMOVUPD (R13)(R9*2), X2
	VMOVUPD (R13)(R10*1), X3
	RADIX4
	SCALE4(scaled+96(FP), s+88(FP), puttr4)

puttr4:
	VMOVUPD X0, (R13)(BX*1)
	VMOVUPD X1, (R13)(CX*1)
	VMOVUPD X2, (R13)(R11*1)
	VMOVUPD X3, (R13)(R12*1)

stepr4:
	ADDQ R8, SI
	ADDQ ds-16(SP), DI
	ADDQ $16, AX
	JMP  twiddlesr4

doner4:
	VZEROUPPER
	RET

// func radix2StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool)
//
// radix2Rows over one block spanning the strip x, storing and
// scaling as radix4StoreRowsAVX2 does.
TEXT ·radix2StoreRowsAVX2(SB), NOSPLIT, $24-97
	MOVQ  x_len+40(FP), AX
	XORQ  DX, DX
	DIVQ  nb+56(FP)           // AX: rows of the strip
	SHRQ  $1, AX              // AX: half of them
	MOVQ  AX, CX
	SHLQ  $4, CX
	MOVQ  CX, htw-8(SP)       // bytes of the twiddles
	MOVQ  stride+24(FP), CX
	SHLQ  $4, CX
	MOVQ  CX, ds-16(SP)       // bytes of a destination row
	IMULQ CX, AX
	MOVQ  AX, dh-24(SP)       // bytes of half the destination rows
	MOVQ  nb+56(FP), R8
	SHLQ  $4, R8              // R8: bytes of one strip row
	MOVQ  x_len+40(FP), R9
	SHLQ  $3, R9              // R9: bytes of half the strip
	MOVQ  x_base+32(FP), SI   // SI: strip row j
	MOVQ  dst_base+0(FP), DI  // DI: destination row j
	XORQ  AX, AX              // AX: 16·j

twiddlesr2:
	CMPQ         AX, htw-8(SP)
	JAE          doner2
	MOVQ         tw_base+64(FP), DX
	VBROADCASTSD (DX)(AX*1), Y14
	VBROADCASTSD 8(DX)(AX*1), Y15
	MOVQ         DI, BX
	SUBQ         SI, BX           // BX: destination row j from strip row j
	MOVQ         BX, CX
	ADDQ         dh-24(SP), CX    // CX: row j+half
	MOVQ         SI, R13
	MOVQ         R8, R14
	ANDQ         $-32, R14
	ADDQ         SI, R14          // R14: end of the column pairs

pairsr2:
	CMPQ    R13, R14
	JAE     tailr2
	VMOVUPD (R13), Y0
	VMOVUPD (R13)(R9*1), Y1
	RADIX2
	SCALE2(scaled+96(FP), s+88(FP), putpr2)

putpr2:
	VMOVUPD Y0, (R13)(BX*1)
	VMOVUPD Y1, (R13)(CX*1)
	ADDQ    $32, R13
	JMP     pairsr2

tailr2:
	TESTQ   $16, R8
	JZ      stepr2
	VMOVUPD (R13), X0
	VMOVUPD (R13)(R9*1), X1
	RADIX2
	SCALE2(scaled+96(FP), s+88(FP), puttr2)

puttr2:
	VMOVUPD X0, (R13)(BX*1)
	VMOVUPD X1, (R13)(CX*1)

stepr2:
	ADDQ R8, SI
	ADDQ ds-16(SP), DI
	ADDQ $16, AX
	JMP  twiddlesr2

doner2:
	VZEROUPPER
	RET

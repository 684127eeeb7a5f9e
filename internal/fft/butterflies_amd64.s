#include "textflag.h"

// AVX2 twins of the butterfly loops of columns.go (radix3Rows, base4Rows,
// radix4Rows, radix2Rows) and fft.go (radix4Pass, radix2Pass). A Y
// register holds two complex128 as (re, im, re, im). The strip loops run
// two adjacent columns per vector under a broadcast twiddle; the in-row
// loops run two consecutive butterflies per vector, each lane pair under
// its own twiddle. An odd last column or butterfly goes through the same
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

// func radix3RowsAVX2(x []complex128, nb int, tw []complex128)
TEXT ·radix3RowsAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R14
	SHLQ $4, R14
	ADDQ DI, R14          // R14: end of x
	MOVQ nb+24(FP), R8
	SHLQ $4, R8           // R8: bytes of one strip row
	MOVQ R8, R11
	ANDQ $-32, R11        // R11: bytes of the column pairs
	LEAQ (R8)(R8*2), R10  // R10: bytes of a triple of rows
	MOVQ tw_base+32(FP), DX
	VBROADCASTSD (DX), Y14
	VBROADCASTSD 8(DX), Y15
	VPCMPEQQ     Y13, Y13, Y13
	VPSLLQ       $63, Y13, Y13

triple:
	LEAQ (DI)(R10*1), AX
	CMPQ AX, R14
	JA   done3
	MOVQ DI, BX
	LEAQ (DI)(R11*1), CX

pairs3:
	CMPQ    BX, CX
	JAE     tail3
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R8*1), Y1
	VMOVUPD (BX)(R8*2), Y2
	RADIX3
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R8*1)
	VMOVUPD Y2, (BX)(R8*2)
	ADDQ    $32, BX
	JMP     pairs3

tail3:
	TESTQ   $16, R8
	JZ      next3
	VMOVUPD (BX), X0
	VMOVUPD (BX)(R8*1), X1
	VMOVUPD (BX)(R8*2), X2
	RADIX3
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R8*1)
	VMOVUPD X2, (BX)(R8*2)

next3:
	MOVQ AX, DI
	JMP  triple

done3:
	VZEROUPPER
	RET

// func base4RowsAVX2(x []complex128, nb int, tw []complex128)
TEXT ·base4RowsAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R14
	SHLQ $4, R14
	ADDQ DI, R14          // R14: end of x
	MOVQ nb+24(FP), R8
	SHLQ $4, R8           // R8: bytes of one strip row
	MOVQ R8, R11
	ANDQ $-32, R11        // R11: bytes of the column pairs
	LEAQ (R8)(R8*2), R10  // R10: bytes of three rows
	MOVQ tw_base+32(FP), DX
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15

quad:
	LEAQ (DI)(R8*4), AX
	CMPQ AX, R14
	JA   doneb
	MOVQ DI, BX
	LEAQ (DI)(R11*1), CX

pairsb:
	CMPQ    BX, CX
	JAE     tailb
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R8*1), Y1
	VMOVUPD (BX)(R8*2), Y2
	VMOVUPD (BX)(R10*1), Y3
	BASE4
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R8*1)
	VMOVUPD Y2, (BX)(R8*2)
	VMOVUPD Y3, (BX)(R10*1)
	ADDQ    $32, BX
	JMP     pairsb

tailb:
	TESTQ   $16, R8
	JZ      nextb
	VMOVUPD (BX), X0
	VMOVUPD (BX)(R8*1), X1
	VMOVUPD (BX)(R8*2), X2
	VMOVUPD (BX)(R10*1), X3
	BASE4
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R8*1)
	VMOVUPD X2, (BX)(R8*2)
	VMOVUPD X3, (BX)(R10*1)

nextb:
	MOVQ AX, DI
	JMP  quad

doneb:
	VZEROUPPER
	RET

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

// func radix2RowsAVX2(x []complex128, nb int, tw []complex128, size int)
TEXT ·radix2RowsAVX2(SB), NOSPLIT, $0-64
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
	SHRQ  $1, R13
	MOVQ  R13, R9
	IMULQ R8, R9          // R9: bytes of half the rows of a block
	SHLQ  $4, R13         // R13: bytes of the twiddles

block2:
	LEAQ (DI)(R9*2), AX
	CMPQ AX, R14
	JA   done2
	MOVQ DI, SI           // SI: row base+j
	XORQ AX, AX           // AX: 16·j

twiddle2:
	CMPQ         AX, R13
	JAE          next2
	VBROADCASTSD (DX)(AX*1), Y14
	VBROADCASTSD 8(DX)(AX*1), Y15
	MOVQ         SI, BX
	LEAQ         (SI)(R11*1), CX

pairs2:
	CMPQ    BX, CX
	JAE     tail2
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R9*1), Y1
	RADIX2
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	ADDQ    $32, BX
	JMP     pairs2

tail2:
	TESTQ   $16, R8
	JZ      step2
	VMOVUPD (BX), X0
	VMOVUPD (BX)(R9*1), X1
	RADIX2
	VMOVUPD X0, (BX)
	VMOVUPD X1, (BX)(R9*1)

step2:
	ADDQ R8, SI
	ADDQ $16, AX
	JMP  twiddle2

next2:
	LEAQ (SI)(R9*1), DI   // SI ended half way through the block
	JMP  block2

done2:
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

// func radix2PassAVX2(x []complex128, tw []complex128, size int)
TEXT ·radix2PassAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R14
	SHLQ $4, R14
	ADDQ DI, R14          // R14: end of x
	MOVQ tw_base+24(FP), DX
	MOVQ size+48(FP), R9
	SHRQ $1, R9
	SHLQ $4, R9           // R9: bytes of a half, of x and of tw alike
	MOVQ R9, R11
	ANDQ $-32, R11        // R11: bytes of the butterfly pairs

blockp2:
	LEAQ (DI)(R9*2), CX
	CMPQ CX, R14
	JA   donep2
	XORQ AX, AX           // AX: 16·j

pairsp2:
	CMPQ      AX, R11
	JAE       tailp2
	VMOVUPD   (DX)(AX*1), Y4
	VMOVDDUP  Y4, Y14
	VPERMILPD $15, Y4, Y15
	LEAQ      (DI)(AX*1), BX
	VMOVUPD   (BX), Y0
	VMOVUPD   (BX)(R9*1), Y1
	RADIX2
	VMOVUPD   Y0, (BX)
	VMOVUPD   Y1, (BX)(R9*1)
	ADDQ      $32, AX
	JMP       pairsp2

tailp2:
	CMPQ         AX, R9
	JAE          nextp2
	VBROADCASTSD (DX)(AX*1), Y14
	VBROADCASTSD 8(DX)(AX*1), Y15
	LEAQ         (DI)(AX*1), BX
	VMOVUPD      (BX), X0
	VMOVUPD      (BX)(R9*1), X1
	RADIX2
	VMOVUPD      X0, (BX)
	VMOVUPD      X1, (BX)(R9*1)

nextp2:
	MOVQ CX, DI
	JMP  blockp2

donep2:
	VZEROUPPER
	RET

// func base4PassAVX2(x []complex128, tw []complex128)
//
// Two butterflies of four consecutive elements per round: the eight
// elements are transposed into Y0…Y3 = (x0,x4), (x1,x5), (x2,x6),
// (x3,x7), run through BASE4 like two strip columns, and transposed
// back. A last lone butterfly goes through X registers.
TEXT ·base4PassAVX2(SB), NOSPLIT, $0-48
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	SHLQ         $4, CX           // CX: bytes of x
	MOVQ         tw_base+24(FP), DX
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	MOVQ         CX, R11
	ANDQ         $-128, R11       // R11: bytes of the butterfly pairs
	XORQ         AX, AX

pairsq:
	CMPQ       AX, R11
	JAE        tailq
	LEAQ       (DI)(AX*1), BX
	VMOVUPD    (BX), Y4
	VMOVUPD    32(BX), Y5
	VMOVUPD    64(BX), Y6
	VMOVUPD    96(BX), Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x31, Y6, Y4, Y1
	VPERM2F128 $0x20, Y7, Y5, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	BASE4
	VPERM2F128 $0x20, Y1, Y0, Y4
	VPERM2F128 $0x20, Y3, Y2, Y5
	VPERM2F128 $0x31, Y1, Y0, Y6
	VPERM2F128 $0x31, Y3, Y2, Y7
	VMOVUPD    Y4, (BX)
	VMOVUPD    Y5, 32(BX)
	VMOVUPD    Y6, 64(BX)
	VMOVUPD    Y7, 96(BX)
	ADDQ       $128, AX
	JMP        pairsq

tailq:
	LEAQ    64(AX), R8
	CMPQ    R8, CX
	JA      doneq
	LEAQ    (DI)(AX*1), BX
	VMOVUPD (BX), X0
	VMOVUPD 16(BX), X1
	VMOVUPD 32(BX), X2
	VMOVUPD 48(BX), X3
	BASE4
	VMOVUPD X0, (BX)
	VMOVUPD X1, 16(BX)
	VMOVUPD X2, 32(BX)
	VMOVUPD X3, 48(BX)

doneq:
	VZEROUPPER
	RET

// func scaleAVX2(dst, src []complex128, s float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	SHLQ         $4, CX           // CX: bytes of src
	VBROADCASTSD s+48(FP), Y0
	MOVQ         CX, DX
	ANDQ         $-32, DX         // DX: bytes of the element pairs
	XORQ         AX, AX

pairss:
	CMPQ    AX, DX
	JAE     tails
	VMULPD  (SI)(AX*1), Y0, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     pairss

tails:
	CMPQ    AX, CX
	JAE     dones
	VMULPD  (SI)(AX*1), X0, X1
	VMOVUPD X1, (DI)(AX*1)

dones:
	VZEROUPPER
	RET

// func interleaveAVX2(z []complex128, re, im []float64)
//
// len(z) is a multiple of 4. Data movement only.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHLQ $3, CX                   // CX: bytes of re and of im read
	MOVQ re_base+24(FP), SI
	MOVQ im_base+48(FP), DX
	XORQ AX, AX

quadi:
	CMPQ       AX, CX
	JAE        donei
	VMOVUPD    (SI)(AX*1), Y0     // (a0, a1, a2, a3)
	VMOVUPD    (DX)(AX*1), Y1     // (b0, b1, b2, b3)
	VUNPCKLPD  Y1, Y0, Y2         // (a0, b0, a2, b2)
	VUNPCKHPD  Y1, Y0, Y3         // (a1, b1, a3, b3)
	VPERM2F128 $0x20, Y3, Y2, Y4
	VPERM2F128 $0x31, Y3, Y2, Y5
	VMOVUPD    Y4, (DI)(AX*2)
	VMOVUPD    Y5, 32(DI)(AX*2)
	ADDQ       $32, AX
	JMP        quadi

donei:
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

// func packAVX2(z, g0, g1 []complex128)
//
// len(z) is even: z[x] = (g0r − g1i, g0i + g1r), the swapped g1 through
// one VADDSUBPD.
TEXT ·packAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHLQ $4, CX                   // CX: bytes of z
	MOVQ g0_base+24(FP), SI
	MOVQ g1_base+48(FP), DX
	XORQ AX, AX

pairsk:
	CMPQ      AX, CX
	JAE       donek
	VMOVUPD   (SI)(AX*1), Y0
	VPERMILPD $5, (DX)(AX*1), Y1
	VADDSUBPD Y1, Y0, Y2
	VMOVUPD   Y2, (DI)(AX*1)
	ADDQ      $32, AX
	JMP       pairsk

donek:
	VZEROUPPER
	RET

// func packMirrorAVX2(z, g0, g1 []complex128)
//
// len(z) = n is even: z[x] = (ur + vi, vr − ui) for u = g0[n−1−x] and
// v = g1[n−1−x]. Each round reads the pair of sources ending where the
// last round's began and reverses it: VPERMPD $0x4E swaps u's halves,
// VPERMPD $0x1B reverses v's four lanes into (vi, vr) order.
TEXT ·packMirrorAVX2(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	SHLQ $4, CX                   // CX: bytes of z
	MOVQ g0_base+24(FP), SI
	MOVQ g1_base+48(FP), DX
	LEAQ -32(CX), BX              // BX: offset of the last source pair
	XORQ AX, AX

pairsm:
	CMPQ     AX, CX
	JAE      donem
	VPERMPD  $0x4E, (SI)(BX*1), Y0 // (u, u') of z[x], z[x+1]
	VPERMPD  $0x1B, (DX)(BX*1), Y1 // (vi, vr, vi', vr')
	VADDPD   Y1, Y0, Y2           // ur + vi in the even lanes
	VSUBPD   Y0, Y1, Y3           // vr − ui in the odd lanes
	VBLENDPD $10, Y3, Y2, Y2
	VMOVUPD  Y2, (DI)(AX*1)
	ADDQ     $32, AX
	SUBQ     $32, BX
	JMP      pairsm

donem:
	VZEROUPPER
	RET

// func mirrorPairsAVX2(out0, out1, a, m []complex128)
//
// len(out0) = n is even. With b = m[n−1−i] (the mirror, read backwards
// like packMirrorAVX2's sources): out0[i] = (½(ar+br), ½(ai−bi)) and,
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

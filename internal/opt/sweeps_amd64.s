#include "textflag.h"

// AVX2 twins of the Pixel solver's per-pixel sweeps: the descent step
// (descentSweep's chain rule, maskFrozen and Adam.stepRange, fused), the
// θ initialisation (logit, with math.Log's amd64 assembly). A Y register
// holds four float64.
//
// Every element sees the IEEE operations of the Go code in its order:
// VMULPD for each product, VADDPD/VSUBPD for each sum, VDIVPD and
// VSQRTPD (both correctly rounded) for the quotients and the root, no
// fused multiply-add and no reciprocal estimate, so every result bit is
// the Go loop's. Each twin covers a length that is a multiple of 4; the
// Go caller finishes the rest.

// func descentAVX2(theta, dTheta, m, v, mask, gm, freeze []float64, k *descentK)
//
// Per pixel, with the constants of k:
//
//	g = ((gm·slope)·mask)·(1 − mask), +0 where freeze ≥ 0.5
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	θ = θ − (lr·(m/c1)) / (√(v/c2) + ε)
//
// dTheta gets g. An empty freeze freezes nothing.
TEXT ·descentAVX2(SB), NOSPLIT, $0-176
	MOVQ         theta_base+0(FP), DI
	MOVQ         theta_len+8(FP), CX
	SHLQ         $3, CX           // CX: bytes of theta
	MOVQ         dTheta_base+24(FP), R8
	MOVQ         m_base+48(FP), R9
	MOVQ         v_base+72(FP), R10
	MOVQ         mask_base+96(FP), SI
	MOVQ         gm_base+120(FP), DX
	MOVQ         freeze_base+144(FP), R11
	MOVQ         freeze_len+152(FP), R12
	MOVQ         k+168(FP), BX
	VBROADCASTSD 0(BX), Y15       // slope
	VBROADCASTSD 8(BX), Y14       // lr
	VBROADCASTSD 16(BX), Y13      // β1
	VBROADCASTSD 24(BX), Y12      // 1 − β1
	VBROADCASTSD 32(BX), Y11      // β2
	VBROADCASTSD 40(BX), Y10      // 1 − β2
	VBROADCASTSD 48(BX), Y9       // c1
	VBROADCASTSD 56(BX), Y8       // c2
	VBROADCASTSD 64(BX), Y7       // ε
	MOVQ         $0x3ff0000000000000, AX
	MOVQ         AX, X6
	VBROADCASTSD X6, Y6           // 1
	MOVQ         $0x3fe0000000000000, AX
	MOVQ         AX, X5
	VBROADCASTSD X5, Y5           // 0.5
	XORQ         AX, AX

quadd:
	CMPQ    AX, CX
	JAE     doned
	VMOVUPD (SI)(AX*1), Y0        // mask
	VMULPD  (DX)(AX*1), Y15, Y1   // gm·slope
	VMULPD  Y0, Y1, Y1
	VSUBPD  Y0, Y6, Y2            // 1 − mask
	VMULPD  Y2, Y1, Y1            // g
	TESTQ   R12, R12
	JZ      adam
	VMOVUPD (R11)(AX*1), Y2
	VCMPPD  $0x1d, Y5, Y2, Y2     // freeze ≥ 0.5, ordered
	VANDNPD Y1, Y2, Y1

adam:
	VMOVUPD Y1, (R8)(AX*1)
	VMULPD  (R9)(AX*1), Y13, Y2   // β1·m
	VMULPD  Y1, Y12, Y3           // (1−β1)·g
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (R9)(AX*1)
	VMULPD  (R10)(AX*1), Y11, Y3  // β2·v
	VMULPD  Y1, Y10, Y4           // (1−β2)·g
	VMULPD  Y1, Y4, Y4            // ·g
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R10)(AX*1)
	VDIVPD  Y9, Y2, Y2            // m/c1
	VMULPD  Y2, Y14, Y2           // lr·(m/c1)
	VDIVPD  Y8, Y3, Y3            // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y7, Y3, Y3
	VDIVPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*1), Y3
	VSUBPD  Y2, Y3, Y3
	VMOVUPD Y3, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     quadd

doned:
	VZEROUPPER
	RET

// The constants of logitsAVX2, four lanes each, from logK.
#define K_ONE ·logK+0(SB)
#define K_TWO ·logK+32(SB)
#define K_HALF ·logK+64(SB)
#define K_HSQRT2 ·logK+96(SB)
#define K_L1 ·logK+128(SB)
#define K_L2 ·logK+160(SB)
#define K_L3 ·logK+192(SB)
#define K_L4 ·logK+224(SB)
#define K_L5 ·logK+256(SB)
#define K_L6 ·logK+288(SB)
#define K_L7 ·logK+320(SB)
#define K_LN2HI ·logK+352(SB)
#define K_LN2LO ·logK+384(SB)
#define K_MANT ·logK+416(SB)
#define K_EXP ·logK+448(SB)
#define K_BIAS ·logK+480(SB)
#define K_MAGIC ·logK+512(SB)

// func logitsAVX2(x []float64, lo, hi, slope float64)
//
// x = Log(r)/slope for r = c/(1−c), c = x clamped to [lo, hi] (ordered
// compares: a NaN stays NaN). Log is math.Log's amd64 assembly
// ($GOROOT/src/math/log_amd64.s) operation for operation, four lanes
// at a time:
//
//	f1 = mantissa(r) | 0.5,  k = exponent(r) − 0x3fe
//	t = 1 where !(√2/2 < f1), else 0;  k −= t;  f1 ·= t + 1
//	f = f1 − 1;  s = f/(2 + f);  s2 = s·s;  s4 = s2·s2
//	t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
//	t2 = s4·(L2 + s4·(L4 + s4·L6))
//	hfsq = (0.5·f)·f
//	Log = k·Ln2Hi − ((hfsq − (s·(hfsq + (t1 + t2)) + k·Ln2Lo)) − f)
//
// The integer k becomes a float64 exactly through the 1.5·2^52 offset.
// The clamp keeps r positive and normal, so of Log's special cases only
// NaN is reachable, and it returns r as Log does.
TEXT ·logitsAVX2(SB), NOSPLIT, $0-48
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	SHLQ         $3, CX           // CX: bytes of x
	VBROADCASTSD lo+24(FP), Y13
	VBROADCASTSD hi+32(FP), Y14
	VBROADCASTSD slope+40(FP), Y12
	VMOVUPD      K_ONE, Y15
	XORQ         AX, AX

quadl:
	CMPQ      AX, CX
	JAE       donel
	VMOVUPD   (DI)(AX*1), Y0
	VCMPPD    $0x11, Y13, Y0, Y1  // x < lo
	VBLENDVPD Y1, Y13, Y0, Y0
	VCMPPD    $0x1e, Y14, Y0, Y1  // x > hi
	VBLENDVPD Y1, Y14, Y0, Y0
	VSUBPD    Y0, Y15, Y1
	VDIVPD    Y1, Y0, Y0          // r
	VPAND     K_MANT, Y0, Y2
	VPOR      K_HALF, Y2, Y2      // f1
	VPSRLQ    $52, Y0, Y3
	VPAND     K_EXP, Y3, Y3
	VPSUBQ    K_BIAS, Y3, Y3
	VPADDQ    K_MAGIC, Y3, Y3
	VSUBPD    K_MAGIC, Y3, Y3     // k
	VMOVUPD   K_HSQRT2, Y4
	VCMPPD    $5, Y2, Y4, Y4      // !(√2/2 < f1)
	VANDPD    Y15, Y4, Y4         // t
	VSUBPD    Y4, Y3, Y3
	VADDPD    Y15, Y4, Y4
	VMULPD    Y4, Y2, Y2
	VSUBPD    Y15, Y2, Y2         // f
	VADDPD    K_TWO, Y2, Y4
	VDIVPD    Y4, Y2, Y4          // s
	VMULPD    Y4, Y4, Y5          // s2
	VMULPD    Y5, Y5, Y6          // s4
	VMULPD    K_L7, Y6, Y7
	VADDPD    K_L5, Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_L3, Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_L1, Y7, Y7
	VMULPD    Y7, Y5, Y5          // t1
	VMULPD    K_L6, Y6, Y7
	VADDPD    K_L4, Y7, Y7
	VMULPD    Y6, Y7, Y7
	VADDPD    K_L2, Y7, Y7
	VMULPD    Y7, Y6, Y6          // t2
	VADDPD    Y6, Y5, Y5          // R
	VMULPD    K_HALF, Y2, Y6
	VMULPD    Y2, Y6, Y6          // hfsq
	VADDPD    Y6, Y5, Y5
	VMULPD    Y5, Y4, Y4
	VMULPD    K_LN2LO, Y3, Y5
	VADDPD    Y5, Y4, Y4
	VSUBPD    Y4, Y6, Y6
	VSUBPD    Y2, Y6, Y6
	VMULPD    K_LN2HI, Y3, Y3
	VSUBPD    Y6, Y3, Y3          // Log(r)
	VCMPPD    $3, Y0, Y0, Y1      // r is NaN
	VBLENDVPD Y1, Y0, Y3, Y3
	VDIVPD    Y12, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*1)
	ADDQ      $32, AX
	JMP       quadl

donel:
	VZEROUPPER
	RET

#include "textflag.h"

// AVX2 twins of litho's per-pixel sweeps: the two sigmoid sweeps of
// sigmoid.go and litho.go (Sigmoids, resistSweep) and the element-wise
// loops of the Hopkins evaluation (addIntensity, mulRealConj). A Y
// register holds four float64, or two complex128 as (re, im, re, im).
//
// Every element sees the IEEE operations of the Go loop in its order:
// VMULPD for each product, VADDPD/VSUBPD for each sum, VDIVPD for the
// quotient, no fused multiply-add and no reciprocal estimate, so every
// result bit is the Go loop's. Each twin covers the length its Go
// caller hands it, a multiple of 4 (float64) or 2 (complex128); the
// caller's Go loop finishes the rest.

// The constants of the sigmoid, four lanes each, from sigmoidK.
#define K_INVLN2N ·sigmoidK+0(SB)
#define K_SHIFT ·sigmoidK+32(SB)
#define K_LN2HI ·sigmoidK+64(SB)
#define K_LN2LO ·sigmoidK+96(SB)
#define K_C2 ·sigmoidK+128(SB)
#define K_C3 ·sigmoidK+160(SB)
#define K_C4 ·sigmoidK+192(SB)
#define K_C5 ·sigmoidK+224(SB)
#define K_ONE ·sigmoidK+256(SB)
#define K_40 ·sigmoidK+288(SB)
#define K_M40 ·sigmoidK+320(SB)
#define K_SIGN ·sigmoidK+352(SB)
#define K_IDX ·sigmoidK+384(SB)

// SIGMOID replaces the four lanes x of Y0 with Sigmoid(x): expSmall(−x)
// through the table, 1/(1+e) as one VDIVPD, then 1 where x > 40 and +0
// where x < −40 (ordered compares: a NaN lane keeps its NaN). In
// expSmall's order:
//
//	kd = −x·invLn2N + shift   (ki: the bits of kd, in integer lanes)
//	r  = (−x + (kd−shift)·ln2hi) + (kd−shift)·ln2lo
//	idx = 2·(ki mod 128); tail, word = expTab[idx], expTab[idx+1]
//	scale = word + ki<<45
//	tmp = ((tail + r) + r²·(C2 + r·C3)) + (r²·r²)·(C4 + r·C5)
//	e = scale + scale·tmp
//
// The index is masked to the table, so a lane of any bits gathers in
// bounds. DX holds &expTab. Y1…Y8 are clobbered.
#define SIGMOID \
	VXORPD     K_SIGN, Y0, Y1;       \
	VMULPD     K_INVLN2N, Y1, Y2;    \
	VADDPD     K_SHIFT, Y2, Y2;      \
	VSUBPD     K_SHIFT, Y2, Y3;      \
	VMULPD     K_LN2HI, Y3, Y4;      \
	VADDPD     Y4, Y1, Y1;           \
	VMULPD     K_LN2LO, Y3, Y3;      \
	VADDPD     Y3, Y1, Y1;           \
	VPAND      K_IDX, Y2, Y3;        \
	VPADDQ     Y3, Y3, Y3;           \
	VPCMPEQQ   Y4, Y4, Y4;           \
	VPGATHERQQ Y4, (DX)(Y3*8), Y5;   \
	VPCMPEQQ   Y4, Y4, Y4;           \
	VPGATHERQQ Y4, 8(DX)(Y3*8), Y6;  \
	VPSLLQ     $45, Y2, Y2;          \
	VPADDQ     Y2, Y6, Y6;           \
	VMULPD     Y1, Y1, Y2;           \
	VMULPD     K_C3, Y1, Y3;         \
	VADDPD     K_C2, Y3, Y3;         \
	VMULPD     Y3, Y2, Y3;           \
	VADDPD     Y1, Y5, Y5;           \
	VADDPD     Y3, Y5, Y5;           \
	VMULPD     K_C5, Y1, Y3;         \
	VADDPD     K_C4, Y3, Y3;         \
	VMULPD     Y2, Y2, Y2;           \
	VMULPD     Y3, Y2, Y2;           \
	VADDPD     Y2, Y5, Y5;           \
	VMULPD     Y5, Y6, Y5;           \
	VADDPD     Y5, Y6, Y6;           \
	VADDPD     K_ONE, Y6, Y6;        \
	VMOVUPD    K_ONE, Y7;            \
	VDIVPD     Y6, Y7, Y1;           \
	VCMPPD     $0x1e, K_40, Y0, Y2;  \
	VBLENDVPD  Y2, Y7, Y1, Y1;       \
	VCMPPD     $0x11, K_M40, Y0, Y2; \
	VANDNPD    Y1, Y2, Y0

// func sigmoidsAVX2(dst, x []float64, a float64)
TEXT ·sigmoidsAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	SHLQ         $3, CX           // CX: bytes of x
	VBROADCASTSD a+48(FP), Y15
	LEAQ         ·expTab(SB), DX
	XORQ         AX, AX

quads:
	CMPQ    AX, CX
	JAE     dones
	VMULPD  (SI)(AX*1), Y15, Y0
	SIGMOID
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     quads

dones:
	VZEROUPPER
	RET

// func resistAVX2(g, terms, in, tg []float64, steep, dose, th float64)
//
// z = Sigmoid(steep·(dose·v − th)), d = z − tg, terms = d·d and
// g = ((((2·d)·steep)·dose)·z)·(1 − z).
TEXT ·resistAVX2(SB), NOSPLIT, $0-120
	MOVQ         g_base+0(FP), DI
	MOVQ         terms_base+24(FP), R8
	MOVQ         in_base+48(FP), SI
	MOVQ         in_len+56(FP), CX
	SHLQ         $3, CX           // CX: bytes of in
	MOVQ         tg_base+72(FP), R9
	VBROADCASTSD steep+96(FP), Y15
	VBROADCASTSD dose+104(FP), Y14
	VBROADCASTSD th+112(FP), Y13
	LEAQ         ·expTab(SB), DX
	XORQ         AX, AX

quadr:
	CMPQ    AX, CX
	JAE     doner
	VMULPD  (SI)(AX*1), Y14, Y0
	VSUBPD  Y13, Y0, Y0
	VMULPD  Y0, Y15, Y0
	SIGMOID
	VSUBPD  (R9)(AX*1), Y0, Y9    // d
	VMULPD  Y9, Y9, Y10
	VMOVUPD Y10, (R8)(AX*1)
	VADDPD  Y9, Y9, Y10           // 2·d, exactly
	VMULPD  Y15, Y10, Y10
	VMULPD  Y14, Y10, Y10
	VMULPD  Y0, Y10, Y10
	VSUBPD  Y0, Y7, Y11           // 1 − z (Y7 still holds 1)
	VMULPD  Y11, Y10, Y10
	VMOVUPD Y10, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     quadr

doner:
	VZEROUPPER
	RET

// func intensityAVX2(out []float64, a []complex128, w float64)
//
// out[x] += w·(re·re + im·im): the squares of four elements, VHADDPD
// pairing each re² with its im² (as (x0, x2, x1, x3)), VPERMPD back into
// order.
TEXT ·intensityAVX2(SB), NOSPLIT, $0-56
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	SHLQ         $3, CX           // CX: bytes of out
	MOVQ         a_base+24(FP), SI
	VBROADCASTSD w+48(FP), Y7
	XORQ         AX, AX

quadi:
	CMPQ    AX, CX
	JAE     donei
	VMOVUPD (SI)(AX*2), Y0
	VMOVUPD 32(SI)(AX*2), Y1
	VMULPD  Y0, Y0, Y0
	VMULPD  Y1, Y1, Y1
	VHADDPD Y1, Y0, Y2
	VPERMPD $0xd8, Y2, Y2
	VMULPD  Y7, Y2, Y2
	VADDPD  (DI)(AX*1), Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     quadi

donei:
	VZEROUPPER
	RET

// func mulRealConjAVX2(a []complex128, g []float64)
//
// a[j] = (g·re, −(g·im)): each g doubled into its element's two lanes
// by VPERMPD, the products, then the sign of the odd lanes flipped.
TEXT ·mulRealConjAVX2(SB), NOSPLIT, $0-48
	MOVQ    a_base+0(FP), DI
	MOVQ    a_len+8(FP), CX
	SHLQ    $3, CX                // CX: bytes of g read
	MOVQ    g_base+24(FP), SI
	VMOVUPD K_SIGN, Y6
	VXORPD  X7, X7, X7
	VBLENDPD $10, Y6, Y7, Y6      // Y6: −0 in the odd lanes, +0 in the even
	MOVQ    CX, DX
	ANDQ    $-32, DX              // DX: bytes of the quads of g
	XORQ    AX, AX

quadc:
	CMPQ    AX, DX
	JAE     pairc
	VMOVUPD (SI)(AX*1), Y0
	VPERMPD $0x50, Y0, Y1         // (g0, g0, g1, g1)
	VPERMPD $0xfa, Y0, Y2         // (g2, g2, g3, g3)
	VMULPD  (DI)(AX*2), Y1, Y1
	VMULPD  32(DI)(AX*2), Y2, Y2
	VXORPD  Y6, Y1, Y1
	VXORPD  Y6, Y2, Y2
	VMOVUPD Y1, (DI)(AX*2)
	VMOVUPD Y2, 32(DI)(AX*2)
	ADDQ    $32, AX
	JMP     quadc

pairc:
	CMPQ    AX, CX
	JAE     donec
	VMOVUPD (SI)(AX*1), X0
	VPERMPD $0x50, Y0, Y1
	VMULPD  (DI)(AX*2), Y1, Y1
	VXORPD  Y6, Y1, Y1
	VMOVUPD Y1, (DI)(AX*2)

donec:
	VZEROUPPER
	RET

#include "textflag.h"

// Every kernel below multiplies, rounds, then adds (VMULPS/VMULPD followed
// by VADDPS/VADDPD — never a fused multiply-add), zeroes its accumulators
// with VXORPS and adds terms in ascending tap/dimension order, so a lane
// holds exactly what the scalar loop in simd.go computes for that pixel or
// row. The gradient and descriptor kernels add division, square root,
// max, min, rounding to an integer, compares and blends, each as exact
// per lane as its scalar form, and the extrema kernel only compares. Each
// ends with VZEROUPPER so the SSE code around it pays no transition
// penalty, and uses no legacy-SSE instruction inside (VMOVQ, not MOVQ, to
// reach an X register): with the upper YMM halves dirty, one MOVQ per
// group made the descriptor kernel five times slower.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func convAVX2(dst *float32, n int, src *float32, offs *int, k *float32, taps int)
//
// dst[j] = Σ_i src[offs[i]+j]·k[i] for j < n: 32 pixels (four accumulators,
// so the add chains overlap) and then 8 at a time. BX is the byte offset
// of pixel j, R11 the tap, R12 the address of src[offs[tap]].
TEXT ·convAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ src+16(FP), SI
	MOVQ offs+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ taps+40(FP), R10
	XORQ BX, BX

conv32:
	CMPQ CX, $32
	JLT  conv8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ R11, R11

conv32tap:
	MOVQ (R8)(R11*8), R12
	LEAQ (SI)(R12*4), R12
	VBROADCASTSS (R9)(R11*4), Y4
	VMULPS (R12)(BX*1), Y4, Y5
	VMULPS 32(R12)(BX*1), Y4, Y6
	VMULPS 64(R12)(BX*1), Y4, Y7
	VMULPS 96(R12)(BX*1), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	INCQ R11
	CMPQ R11, R10
	JLT  conv32tap
	VMOVUPS Y0, (DI)(BX*1)
	VMOVUPS Y1, 32(DI)(BX*1)
	VMOVUPS Y2, 64(DI)(BX*1)
	VMOVUPS Y3, 96(DI)(BX*1)
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  conv32

conv8:
	CMPQ CX, $8
	JLT  convdone
	VXORPS Y0, Y0, Y0
	XORQ R11, R11

conv8tap:
	MOVQ (R8)(R11*8), R12
	LEAQ (SI)(R12*4), R12
	VBROADCASTSS (R9)(R11*4), Y4
	VMULPS (R12)(BX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	INCQ R11
	CMPQ R11, R10
	JLT  conv8tap
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  conv8

convdone:
	VZEROUPPER
	RET

// func subAVX2(dst, a, b *float32, n int)
//
// dst[i] = a[i] - b[i] for i < n, 8 at a time. Both operands of a block
// are read before its result is stored, so dst may be a or b.
TEXT ·subAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX

sub8:
	CMPQ CX, $8
	JLT  subdone
	VMOVUPS (SI)(BX*1), Y0
	VSUBPS (DX)(BX*1), Y0, Y0
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  sub8

subdone:
	VZEROUPPER
	RET

// The two 16-row kernels share one shape. Per block of four dimensions
// (AX = its byte offset) and group of four rows, each row's four terms are
// computed into one of Y0..Y3 (lanes = dimensions), the 4×4 float64 block
// is transposed so that lanes become rows, and the four columns are added
// to the group's accumulator one after another: per row that is the scalar
// loop's sum += term, in dimension order. Four groups keep four
// independent add chains in flight. DX points at the 16 row pointers;
// the macros take a row as the byte offset of its pointer there.

// SQROW: y = float64(q[i] − row[i])², the difference taken in float32.
// X11 holds the block's four q values.
#define SQROW(off, x, y) \
	MOVQ off(DX), R8; \
	VSUBPS (R8)(AX*1), X11, x; \
	VCVTPS2PD x, y; \
	VMULPD y, y, y

// DOTROW: y = float64(q[i])·float64(row[i]). Y11 holds the block's four q
// values, already widened.
#define DOTROW(off, y) \
	MOVQ off(DX), R8; \
	VCVTPS2PD (R8)(AX*1), y; \
	VMULPD y, Y11, y

// ADDCOLS: Y0..Y3 are rows a..d of the block. Y4 = a0 b0 a2 b2, Y5 = a1 b1
// a3 b3, Y6 = c0 d0 c2 d2, Y7 = c1 d1 c3 d3; the 128-bit permutes then give
// column t as (at bt ct dt), added to acc for t = 0, 1, 2, 3.
#define ADDCOLS(acc) \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VPERM2F128 $0x20, Y6, Y4, Y8; \
	VPERM2F128 $0x20, Y7, Y5, Y9; \
	VPERM2F128 $0x31, Y6, Y4, Y4; \
	VPERM2F128 $0x31, Y7, Y5, Y5; \
	VADDPD Y8, acc, acc; \
	VADDPD Y9, acc, acc; \
	VADDPD Y4, acc, acc; \
	VADDPD Y5, acc, acc

#define SQGROUP(o0, o1, o2, o3, acc) \
	SQROW(o0, X0, Y0); \
	SQROW(o1, X1, Y1); \
	SQROW(o2, X2, Y2); \
	SQROW(o3, X3, Y3); \
	ADDCOLS(acc)

#define DOTGROUP(o0, o1, o2, o3, acc) \
	DOTROW(o0, Y0); \
	DOTROW(o1, Y1); \
	DOTROW(o2, Y2); \
	DOTROW(o3, Y3); \
	ADDCOLS(acc)

// func sqDist16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int)
TEXT ·sqDist16AVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ blocks+24(FP), CX
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	XORQ AX, AX

sqblock:
	CMPQ CX, $1
	JLT  sqdone
	VMOVUPS (SI)(AX*1), X11
	SQGROUP(0, 8, 16, 24, Y12)
	SQGROUP(32, 40, 48, 56, Y13)
	SQGROUP(64, 72, 80, 88, Y14)
	SQGROUP(96, 104, 112, 120, Y15)
	ADDQ $16, AX
	DECQ CX
	JMP  sqblock

sqdone:
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y15, 96(DI)
	VZEROUPPER
	RET

// func dot16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int)
TEXT ·dot16AVX2(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ blocks+24(FP), CX
	VXORPS Y12, Y12, Y12
	VXORPS Y13, Y13, Y13
	VXORPS Y14, Y14, Y14
	VXORPS Y15, Y15, Y15
	XORQ AX, AX

dotblock:
	CMPQ CX, $1
	JLT  dotdone
	VCVTPS2PD (SI)(AX*1), Y11
	DOTGROUP(0, 8, 16, 24, Y12)
	DOTGROUP(32, 40, 48, 56, Y13)
	DOTGROUP(64, 72, 80, 88, Y14)
	DOTGROUP(96, 104, 112, 120, Y15)
	ADDQ $16, AX
	DECQ CX
	JMP  dotblock

dotdone:
	VMOVUPD Y12, (DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y15, 96(DI)
	VZEROUPPER
	RET

// func dotHighHalfAVX2(out, q *float32, n int, chunks *[]uint16, shift uint, stride int, rows *int32, count int)
//
// One row at a time: R8 points at its high halves, DX at those of the
// row four places further down the list (the last row near the end),
// and R13 is the dimension. A row r is found through the chunk table:
// the base pointer of chunk r>>shift (shift in CL; a slice header is 24
// bytes, the pointer first) plus (r&mask)·stride halves (mask in R14),
// R13 holding the chunk index until the block loop starts. CX is taken,
// so the tail loop compares against n in memory. Per 32
// dimensions, four VPMOVZXWD/VPSLLD pairs turn 32 halves into floats —
// lanes = dimensions — multiplied by q and added to Y0..Y3, and one
// PREFETCHT0 fetches the same cache line of the row ahead. Y0..Y3 are
// then folded as (Y0+Y1)+(Y2+Y3), the eight lanes as
// ((s0+s4)+(s2+s6))+((s1+s5)+(s3+s7)), and the last n mod 32 dimensions
// added one at a time.
TEXT ·dotHighHalfAVX2(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n+16(FP), BX
	MOVQ chunks+24(FP), R9
	MOVQ shift+32(FP), CX
	MOVQ stride+40(FP), R10
	MOVQ rows+48(FP), R11
	MOVQ count+56(FP), R12
	MOVQ $1, R14
	SHLQ CX, R14
	DECQ R14
	SHLQ $1, R10
	ANDQ $-32, BX
	XORQ AX, AX

hhrow:
	MOVLQSX (R11)(AX*4), R8
	MOVQ    R8, R13
	SHRQ    CX, R13
	ANDQ    R14, R8
	IMULQ   R10, R8
	LEAQ    (R13)(R13*2), R13
	ADDQ    (R9)(R13*8), R8
	LEAQ    4(AX), DX
	CMPQ    DX, R12
	JLT     hhahead
	LEAQ    -1(R12), DX

hhahead:
	MOVLQSX (R11)(DX*4), DX
	MOVQ    DX, R13
	SHRQ    CX, R13
	ANDQ    R14, DX
	IMULQ   R10, DX
	LEAQ    (R13)(R13*2), R13
	ADDQ    (R9)(R13*8), DX
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	XORQ    R13, R13

hhblock:
	CMPQ       R13, BX
	JGE        hhfold
	PREFETCHT0 (DX)(R13*2)
	VPMOVZXWD  (R8)(R13*2), Y4
	VPMOVZXWD  16(R8)(R13*2), Y5
	VPMOVZXWD  32(R8)(R13*2), Y6
	VPMOVZXWD  48(R8)(R13*2), Y7
	VPSLLD     $16, Y4, Y4
	VPSLLD     $16, Y5, Y5
	VPSLLD     $16, Y6, Y6
	VPSLLD     $16, Y7, Y7
	VMULPS     (SI)(R13*4), Y4, Y4
	VMULPS     32(SI)(R13*4), Y5, Y5
	VMULPS     64(SI)(R13*4), Y6, Y6
	VMULPS     96(SI)(R13*4), Y7, Y7
	VADDPS     Y4, Y0, Y0
	VADDPS     Y5, Y1, Y1
	VADDPS     Y6, Y2, Y2
	VADDPS     Y7, Y3, Y3
	ADDQ       $32, R13
	JMP        hhblock

hhfold:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0

hhtail:
	CMPQ    R13, n+16(FP)
	JGE     hhstore
	MOVWLZX (R8)(R13*2), DX
	SHLL    $16, DX
	VMOVD   DX, X1
	VMULSS  (SI)(R13*4), X1, X1
	VADDSS  X1, X0, X0
	INCQ    R13
	JMP     hhtail

hhstore:
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX
	CMPQ   AX, R12
	JLT    hhrow
	VZEROUPPER
	RET

// The gradient kernel replays, one pixel per float64 lane, the exact
// operation sequences of the standard library on amd64: math.Hypot is the
// archHypot assembly (math/hypot_amd64.s) and math.Atan2 the pure-Go
// atan2 → atan → satan → xatan chain (math/atan2.go, math/atan.go). Every
// step is one IEEE operation — add, sub, mul, div, sqrt, max, min — on the
// same operands in the same order, and every branch becomes a compare and
// a blend, so each lane rounds exactly where the scalar code does. Lanes
// whose inputs are not finite never get here (see gradAVX2).
//
// Each constant is stored four times so that it serves as a 256-bit
// memory operand; the bits are those of the Go constants.
#define KCONST(off, bits) \
	DATA gradK<>+(off)(SB)/8, $bits; \
	DATA gradK<>+(off+8)(SB)/8, $bits; \
	DATA gradK<>+(off+16)(SB)/8, $bits; \
	DATA gradK<>+(off+24)(SB)/8, $bits

KCONST(0, 0x7fffffffffffffff)   // ABS: clears the sign
KCONST(32, 0x8000000000000000)  // SIGN
KCONST(64, 0x3ff0000000000000)  // 1
KCONST(96, 0x3fe51eb851eb851f)  // 0.66, satan's first range limit
KCONST(128, 0x4003504f333f9de6) // Tan3pio8
KCONST(160, 0xbfec007fa1f72594) // xatan's P0..P4
KCONST(192, 0xc03028545b6b807a)
KCONST(224, 0xc052c08c36880273)
KCONST(256, 0xc05eb8bf2d05ba25)
KCONST(288, 0xc0503669fd28ec8e)
KCONST(320, 0x4038dbc45b14603c) // xatan's Q0..Q4
KCONST(352, 0x4064a0dd43b8fa25)
KCONST(384, 0x407b0e18d2e2be3b)
KCONST(416, 0x407e563f13b049ea)
KCONST(448, 0x4068519efbbd62ec)
KCONST(480, 0x400921fb54442d18) // Pi
KCONST(512, 0x3ff921fb54442d18) // Pi/2
KCONST(544, 0x3fe921fb54442d18) // Pi/4
KCONST(576, 0x3c91a62633145c07) // Morebits
KCONST(608, 0x3c81a62633145c07) // 0.5*Morebits
KCONST(640, 0x7ff0000000000000) // +Inf
GLOBL gradK<>(SB), RODATA|NOPTR, $672

#define ABS gradK<>+0(SB)
#define SIGN gradK<>+32(SB)
#define ONE gradK<>+64(SB)
#define R066 gradK<>+96(SB)
#define TAN3PIO8 gradK<>+128(SB)
#define P0 gradK<>+160(SB)
#define P1 gradK<>+192(SB)
#define P2 gradK<>+224(SB)
#define P3 gradK<>+256(SB)
#define P4 gradK<>+288(SB)
#define Q0 gradK<>+320(SB)
#define Q1 gradK<>+352(SB)
#define Q2 gradK<>+384(SB)
#define Q3 gradK<>+416(SB)
#define Q4 gradK<>+448(SB)
#define PI gradK<>+480(SB)
#define PIO2 gradK<>+512(SB)
#define PIO4 gradK<>+544(SB)
#define MOREBITS gradK<>+576(SB)
#define HALFMOREBITS gradK<>+608(SB)
#define INF gradK<>+640(SB)

// VCMPPD/VCMPPS predicates. The ordered ones are false when either operand
// is NaN, as Go's < <= == >= > are; NLT_UQ is Go's !(a < b).
#define EQ_OQ $0x00
#define NLT_UQ $0x15
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GE_OQ $0x1d
#define GT_OQ $0x1e

// func gradAVX2(mag, theta *float64, up, cur, down *float32, n int) int
//
// AX counts pixels; Y0 = gx and Y1 = gy for the four in hand, Y7 = 0.
TEXT ·gradAVX2(SB), NOSPLIT, $0-56
	MOVQ mag+0(FP), DI
	MOVQ theta+8(FP), R8
	MOVQ up+16(FP), SI
	MOVQ cur+24(FP), DX
	MOVQ down+32(FP), R9
	MOVQ n+40(FP), CX
	XORQ AX, AX
	VXORPD Y7, Y7, Y7

grad4:
	CMPQ AX, CX
	JGE  graddone
	VMOVUPS 8(DX)(AX*4), X0
	VSUBPS  (DX)(AX*4), X0, X0
	VMOVUPS (R9)(AX*4), X1
	VSUBPS  (SI)(AX*4), X1, X1
	VCVTPS2PD X0, Y0
	VCVTPS2PD X1, Y1

	// Stop at a group with an Inf or NaN: |g| < Inf fails for both.
	VANDPD ABS, Y0, Y2
	VANDPD ABS, Y1, Y3
	VCMPPD LT_OQ, INF, Y2, Y4
	VCMPPD LT_OQ, INF, Y3, Y5
	VANDPD Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	CMPQ BX, $15
	JNE  graddone

	// archHypot: p, q = |gx|, |gy|; max·sqrt(1 + (min/max)²), or 0 when
	// max is 0 (both are; the quotient is then NaN and blended away).
	VMAXPD  Y3, Y2, Y4
	VMINPD  Y3, Y2, Y5
	VDIVPD  Y4, Y5, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  ONE, Y6, Y6
	VSQRTPD Y6, Y6
	VMULPD  Y6, Y4, Y6
	VCMPPD  EQ_OQ, Y7, Y4, Y5
	VANDNPD Y6, Y5, Y6
	VMOVUPD Y6, (DI)(AX*8)

	// atan2's general case: q = Atan(v) for v = gy/gx. Atan is v for
	// v = ±0 and otherwise ±satan(|v|); satan(t) ≥ +0 and satan(0) = +0,
	// so q is satan(t) with v's sign bit.
	VDIVPD Y0, Y1, Y2                // v
	VANDPD ABS, Y2, Y3               // t
	// satan's ranges, as one quotient r = n/d into xatan: (t, 1) for
	// t ≤ 0.66, (1, t) above Tan3pio8, (t-1, t+1) between.
	VCMPPD    LE_OQ, R066, Y3, Y4    // small
	VCMPPD    GT_OQ, TAN3PIO8, Y3, Y5 // big
	VSUBPD    ONE, Y3, Y6
	VADDPD    ONE, Y3, Y8
	VBLENDVPD Y5, ONE, Y6, Y6
	VBLENDVPD Y5, Y3, Y8, Y8
	VBLENDVPD Y4, Y3, Y6, Y6
	VBLENDVPD Y4, ONE, Y8, Y8
	VDIVPD    Y8, Y6, Y6             // r
	// xatan(r): z = r²; z = z·P(z) / Q(z), Horner from P0 and from z+Q0;
	// r·z + r.
	VMULPD Y6, Y6, Y8
	VMULPD P0, Y8, Y9
	VADDPD P1, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD P2, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD P3, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD P4, Y9, Y9
	VADDPD Q0, Y8, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q1, Y10, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q2, Y10, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q3, Y10, Y10
	VMULPD Y8, Y10, Y10
	VADDPD Q4, Y10, Y10
	VMULPD Y9, Y8, Y8
	VDIVPD Y10, Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD Y6, Y8, Y8                // xatan(r)
	// (Pi/2 − z) + Morebits above Tan3pio8, (Pi/4 + z) + 0.5·Morebits
	// between, z itself up to 0.66.
	VMOVUPD   PIO2, Y9
	VSUBPD    Y8, Y9, Y9
	VADDPD    MOREBITS, Y9, Y9
	VADDPD    PIO4, Y8, Y10
	VADDPD    HALFMOREBITS, Y10, Y10
	VBLENDVPD Y5, Y9, Y10, Y10
	VBLENDVPD Y4, Y8, Y10, Y10       // satan(t)
	VANDPD    SIGN, Y2, Y9
	VORPD     Y9, Y10, Y10           // q
	// gx < 0: q + Pi if q ≤ 0, else q − Pi. gx is not zero here (that
	// case is blended over below), so its sign bit says gx < 0.
	VADDPD    PI, Y10, Y11
	VSUBPD    PI, Y10, Y12
	VCMPPD    LE_OQ, Y7, Y10, Y13
	VBLENDVPD Y13, Y11, Y12, Y11
	VBLENDVPD Y0, Y11, Y10, Y10
	// atan2's special cases, the later taking precedence: gx == 0 gives
	// Pi/2 with gy's sign; gy == 0 gives gy itself when gx's sign bit is
	// clear, else Pi with gy's sign.
	VANDPD    SIGN, Y1, Y9
	VORPD     PIO2, Y9, Y11
	VCMPPD    EQ_OQ, Y7, Y0, Y12
	VBLENDVPD Y12, Y11, Y10, Y10
	VORPD     PI, Y9, Y11
	VBLENDVPD Y0, Y11, Y1, Y11
	VCMPPD    EQ_OQ, Y7, Y1, Y12
	VBLENDVPD Y12, Y11, Y10, Y10
	VMOVUPD   Y10, (R8)(AX*8)

	ADDQ $4, AX
	JMP  grad4

graddone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// NEIGHBOUR compares the eight centres in Y0 with the eight pixels at
// addr, and ORs "some neighbour ≥ v" into Y2 and "some neighbour ≤ v"
// into Y3 — isExtremum's n >= v and n <= v, as v <= n and v >= n.
#define NEIGHBOUR(addr) \
	VMOVUPS addr, Y4; \
	VCMPPS  LE_OQ, Y4, Y0, Y5; \
	VCMPPS  GE_OQ, Y4, Y0, Y6; \
	VORPS   Y5, Y2, Y2; \
	VORPS   Y6, Y3, Y3

// NEIGHBOURS9 is NEIGHBOUR over the 3×3 block whose top-left pixel lines up
// with pixel 0 at base: rows at offsets 0, AX and DX (one and two strides).
#define NEIGHBOURS9(base) \
	NEIGHBOUR(0(base)); \
	NEIGHBOUR(4(base)); \
	NEIGHBOUR(8(base)); \
	NEIGHBOUR(0(base)(AX*1)); \
	NEIGHBOUR(4(base)(AX*1)); \
	NEIGHBOUR(8(base)(AX*1)); \
	NEIGHBOUR(0(base)(DX*1)); \
	NEIGHBOUR(4(base)(DX*1)); \
	NEIGHBOUR(8(base)(DX*1))

// func extremaAVX2(mask *uint8, groups int, below, cur, above *float32, w int, min float32)
//
// R8, R11 and R14 point at the three windows, advanced by eight pixels per
// group; AX is the row stride in bytes and DX twice that. The centres are
// at 4(R11)(AX*1). Y14 = the float32 abs mask, Y15 = min in every lane.
TEXT ·extremaAVX2(SB), NOSPLIT, $0-52
	MOVQ mask+0(FP), DI
	MOVQ groups+8(FP), CX
	MOVQ below+16(FP), R8
	MOVQ cur+24(FP), R11
	MOVQ above+32(FP), R14
	MOVQ w+40(FP), AX
	SHLQ $2, AX
	LEAQ (AX)(AX*1), DX
	VBROADCASTSS min+48(FP), Y15
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $1, Y14, Y14

ext8:
	VMOVUPS 4(R11)(AX*1), Y0
	// Contrast: !(|v| < min). A group with no pixel left skips the 26
	// comparisons.
	VANDPS    Y14, Y0, Y1
	VCMPPS    NLT_UQ, Y15, Y1, Y1
	VMOVMSKPS Y1, BX
	TESTQ     BX, BX
	JZ        ext8store
	VXORPS    Y2, Y2, Y2
	VXORPS    Y3, Y3, Y3
	NEIGHBOURS9(R8)
	NEIGHBOUR(0(R11))
	NEIGHBOUR(4(R11))
	NEIGHBOUR(8(R11))
	NEIGHBOUR(0(R11)(AX*1))
	NEIGHBOUR(8(R11)(AX*1))
	NEIGHBOUR(0(R11)(DX*1))
	NEIGHBOUR(4(R11)(DX*1))
	NEIGHBOUR(8(R11)(DX*1))
	NEIGHBOURS9(R14)
	// An extremum is not (some neighbour ≥ v and some neighbour ≤ v).
	VANDPS    Y3, Y2, Y2
	VANDNPS   Y1, Y2, Y1
	VMOVMSKPS Y1, BX

ext8store:
	MOVB BX, (DI)
	INCQ DI
	ADDQ $32, R8
	ADDQ $32, R11
	ADDQ $32, R14
	DECQ CX
	JNZ  ext8
	VZEROUPPER
	RET

// The descriptor kernel's constants, four float64 (or int64) lanes each,
// then two four-lane int32 vectors.
#define DCONST(off, bits) \
	DATA descK<>+(off)(SB)/8, $bits; \
	DATA descK<>+(off+8)(SB)/8, $bits; \
	DATA descK<>+(off+16)(SB)/8, $bits; \
	DATA descK<>+(off+24)(SB)/8, $bits

DCONST(0, 0x4000000000000000)   // 2
DCONST(32, 0x3fe0000000000000)  // 0.5
DCONST(64, 0xbff0000000000000)  // -1
DCONST(96, 0x4010000000000000)  // 4
DCONST(128, 0x401921fb54442d18) // 2·Pi
DCONST(160, 0x4020000000000000) // 8
DCONST(192, 0x4018000000000000) // 6
DATA descK<>+224(SB)/8, $0      // lane numbers 0..3
DATA descK<>+232(SB)/8, $1
DATA descK<>+240(SB)/8, $2
DATA descK<>+248(SB)/8, $3
DATA descK<>+256(SB)/8, $0x0000000100000001 // int32 1
DATA descK<>+264(SB)/8, $0x0000000100000001
DATA descK<>+272(SB)/8, $0x0000000700000007 // int32 7
DATA descK<>+280(SB)/8, $0x0000000700000007
GLOBL descK<>(SB), RODATA|NOPTR, $288

#define TWO descK<>+0(SB)
#define HALF descK<>+32(SB)
#define NEGONE descK<>+64(SB)
#define FOUR descK<>+96(SB)
#define TWOPI descK<>+128(SB)
#define EIGHT descK<>+160(SB)
#define SIX descK<>+192(SB)
#define LANES descK<>+224(SB)
#define ONE32 descK<>+256(SB)
#define SEVEN32 descK<>+272(SB)

#define NEQ_UQ $0x04

// The group in hand is written to the buffer at R13, the one before it
// is added from R14: 0..127 its shares, 16 bytes per kind, 128 and 144
// the bin indices cell·8 + o0 and cell·8 + o1, 160 the mask of the
// pixels it adds (0: nothing to add).

// SHARES stores the float32 shares wx·(1 − fo) and wx·fo of the four
// pixels, wx in Y4, at off(R13) and off+16(R13). Y9 = 1 − fo, Y1 = fo.
#define SHARES(off) \
	VMULPD     Y9, Y4, Y5; \
	VCVTPD2PSY Y5, X5; \
	VMOVUPS    X5, off(R13); \
	VMULPD     Y1, Y4, Y5; \
	VCVTPD2PSY Y5, X5; \
	VMOVUPS    X5, off+16(R13)

// BIN adds the float32 at share(R14) to bin idx of the cell off bytes on.
#define BIN(idx, off, share) \
	VMOVSS off(DI)(idx*4), X0; \
	VADDSS share(R14), X0, X0; \
	VMOVSS X0, off(DI)(idx*4)

// PIXEL adds lane's eight shares (lane = 4·pixel, a byte offset into each
// 16-byte row): the cell itself, the one right of it (+8 bins), below
// (+48) and below right (+56), each at o0 (R11) and o1 (R12).
#define PIXEL(lane) \
	MOVL 128+lane(R14), R11; \
	MOVL 144+lane(R14), R12; \
	BIN(R11, 0, lane); \
	BIN(R12, 0, lane+16); \
	BIN(R11, 32, lane+32); \
	BIN(R12, 32, lane+48); \
	BIN(R11, 192, lane+64); \
	BIN(R12, 192, lane+80); \
	BIN(R11, 224, lane+96); \
	BIN(R12, 224, lane+112)

// ADDGROUP adds the group at R14, unless it adds nothing; skip is the
// label after it.
#define ADDGROUP(skip) \
	CMPQ 160(R14), $0; \
	JEQ  skip; \
	PIXEL(0); \
	PIXEL(4); \
	PIXEL(8); \
	PIXEL(12)

// func descRowAVX2(grid *DescGrid, mag, theta, weight, colCos, colSin *float64, n int, rowSin, rowCos, binWidth, orientation float64) int
//
// Four pixels per group, one per float64 lane, AX the first of them; a
// short last group loads only the CX−AX pixels left (VMASKMOVPD), the
// others reading as zero magnitude. The lanes replay descRowGo up to its
// eight float32 shares, which go to a buffer; the shares are added one
// pixel after another once the next group has been computed, so that the
// next group's arithmetic overlaps the adds, which wait on each other
// through memory when neighbouring pixels share a bin. A pixel the twin
// skips adds +0 to the bins of cell 0, which changes no bin: none is ever
// −0. Y15..Y12 = rowSin, rowCos, binWidth, orientation; Y11 = 0 after the
// loads.
TEXT ·descRowAVX2(SB), NOSPLIT, $384-96
	MOVQ grid+0(FP), DI
	MOVQ mag+8(FP), SI
	MOVQ theta+16(FP), DX
	MOVQ weight+24(FP), R8
	MOVQ colCos+32(FP), R9
	MOVQ colSin+40(FP), R10
	MOVQ n+48(FP), CX
	VBROADCASTSD rowSin+56(FP), Y15
	VBROADCASTSD rowCos+64(FP), Y14
	VBROADCASTSD binWidth+72(FP), Y13
	VBROADCASTSD orientation+80(FP), Y12
	LEAQ 0(SP), R13
	LEAQ 192(SP), R14
	MOVQ $0, 160(R14) // no group before the first
	XORQ AX, AX

desc4:
	CMPQ AX, CX
	JGE  descend
	MOVQ CX, BX
	SUBQ AX, BX
	CMPQ BX, $4
	JLT  descshort
	VMOVUPD (SI)(AX*8), Y0  // mag
	VMOVUPD (DX)(AX*8), Y1  // theta
	VMOVUPD (R9)(AX*8), Y2  // colCos
	VMOVUPD (R10)(AX*8), Y3 // colSin
	VMOVUPD (R8)(AX*8), Y8  // weight
	JMP     descloaded

descshort:
	VMOVQ        BX, X11
	VPBROADCASTQ X11, Y11
	VPCMPGTQ     LANES, Y11, Y11 // the lanes left
	VMASKMOVPD   (SI)(AX*8), Y11, Y0
	VMASKMOVPD   (DX)(AX*8), Y11, Y1
	VMASKMOVPD   (R9)(AX*8), Y11, Y2
	VMASKMOVPD   (R10)(AX*8), Y11, Y3
	VMASKMOVPD   (R8)(AX*8), Y11, Y8

descloaded:
	VXORPD Y11, Y11, Y11

	// bx = ((colCos − rowSin)/binWidth + 2) − 0.5, by from colSin + rowCos.
	VSUBPD Y15, Y2, Y2
	VDIVPD Y13, Y2, Y2
	VADDPD TWO, Y2, Y2
	VSUBPD HALF, Y2, Y2
	VADDPD Y14, Y3, Y3
	VDIVPD Y13, Y3, Y3
	VADDPD TWO, Y3, Y3
	VSUBPD HALF, Y3, Y3

	// Stop at a group with an Inf or NaN among mag, theta, bx and by.
	VANDPD    ABS, Y0, Y4
	VCMPPD    LT_OQ, INF, Y4, Y4
	VANDPD    ABS, Y1, Y5
	VCMPPD    LT_OQ, INF, Y5, Y5
	VANDPD    Y5, Y4, Y4
	VANDPD    ABS, Y2, Y5
	VCMPPD    LT_OQ, INF, Y5, Y5
	VANDPD    Y5, Y4, Y4
	VANDPD    ABS, Y3, Y5
	VCMPPD    LT_OQ, INF, Y5, Y5
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	CMPQ      BX, $15
	JNE       descstop

	// Y4 = the pixels the twin adds: mag ≠ 0 and -1 < bx, by < 4. A group
	// with none adds nothing.
	VCMPPD    NEQ_UQ, Y11, Y0, Y4
	VCMPPD    GT_OQ, NEGONE, Y2, Y5
	VANDPD    Y5, Y4, Y4
	VCMPPD    LT_OQ, FOUR, Y2, Y5
	VANDPD    Y5, Y4, Y4
	VCMPPD    GT_OQ, NEGONE, Y3, Y5
	VANDPD    Y5, Y4, Y4
	VCMPPD    LT_OQ, FOUR, Y3, Y5
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, BX
	MOVQ      BX, 160(R13)
	TESTQ     BX, BX
	JZ        descadd

	// rel = theta − orientation, + 2·Pi once if below 0, then − 2·Pi once
	// if not below 2·Pi. Stop when an added pixel's twin would loop again.
	VSUBPD    Y12, Y1, Y1
	VCMPPD    LT_OQ, Y11, Y1, Y5
	VADDPD    TWOPI, Y1, Y6
	VBLENDVPD Y5, Y6, Y1, Y1
	VCMPPD    GE_OQ, Y11, Y1, Y7
	VCMPPD    GE_OQ, TWOPI, Y1, Y5
	VSUBPD    TWOPI, Y1, Y6
	VBLENDVPD Y5, Y6, Y1, Y1
	VCMPPD    LT_OQ, TWOPI, Y1, Y5
	VANDPD    Y5, Y7, Y7
	VANDPD    Y4, Y7, Y7
	VMOVMSKPD Y7, R11
	CMPQ      R11, BX
	JNE       descstop
	VDIVPD    TWOPI, Y1, Y1
	VMULPD    EIGHT, Y1, Y1 // ob

	// x0, y0 = floor(bx), floor(by) — in (-1, 4) the twin's truncation
	// or -1 — and o0 = trunc(ob); + 0 makes a −0 the +0 of float64(int).
	// Then fx, fy, fo.
	VROUNDPD $1, Y2, Y5
	VADDPD   Y11, Y5, Y5
	VROUNDPD $1, Y3, Y6
	VADDPD   Y11, Y6, Y6
	VROUNDPD $3, Y1, Y7
	VADDPD   Y11, Y7, Y7
	VSUBPD   Y5, Y2, Y2
	VSUBPD   Y6, Y3, Y3
	VSUBPD   Y7, Y1, Y1

	// Bin indices: cell·8 = ((y0 + 1)·6 + x0 + 1)·8, exact in float64, and
	// o0, o1 = o0 & 7, (o0 + 1) & 7, in int32 lanes. A pixel not added
	// gets cell 0.
	VADDPD      ONE, Y6, Y6
	VMULPD      SIX, Y6, Y6
	VADDPD      Y5, Y6, Y6
	VADDPD      ONE, Y6, Y6
	VMULPD      EIGHT, Y6, Y6
	VANDPD      Y4, Y6, Y6
	VCVTTPD2DQY Y6, X6
	VANDPD      Y4, Y7, Y7
	VCVTTPD2DQY Y7, X7
	VPADDD      ONE32, X7, X5
	VPAND       SEVEN32, X7, X7
	VPAND       SEVEN32, X5, X5
	VPADDD      X6, X7, X7
	VPADDD      X6, X5, X5
	VMOVDQU     X7, 128(R13)
	VMOVDQU     X5, 144(R13)

	// w = mag·weight; a pixel not added has w, fx, fy, fo = +0, so all its
	// shares are +0.
	VMULPD Y8, Y0, Y0
	VANDPD Y4, Y0, Y0
	VANDPD Y4, Y2, Y2
	VANDPD Y4, Y3, Y3
	VANDPD Y4, Y1, Y1

	// wy = w·(1 − fy) and w·fy, wx = wy·(1 − fx) and wy·fx, then the
	// shares wx·(1 − fo) and wx·fo.
	VMOVUPD ONE, Y9
	VSUBPD  Y3, Y9, Y10
	VMULPD  Y10, Y0, Y10
	VMULPD  Y3, Y0, Y3
	VSUBPD  Y2, Y9, Y0
	VSUBPD  Y1, Y9, Y9
	VMULPD  Y0, Y10, Y4
	SHARES(0)
	VMULPD  Y2, Y10, Y4
	SHARES(32)
	VMULPD  Y0, Y3, Y4
	SHARES(64)
	VMULPD  Y2, Y3, Y4
	SHARES(96)

descadd:
	ADDGROUP(descadded)

descadded:
	XCHGQ R13, R14
	ADDQ  $4, AX
	JMP   desc4

descend:
	// The last group may have been short.
	CMPQ    AX, CX
	CMOVQGT CX, AX

descstop:
	ADDGROUP(descdone)

descdone:
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

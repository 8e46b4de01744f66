#include "textflag.h"

// Every kernel below multiplies, rounds, then adds (VMULPS/VMULPD followed
// by VADDPS/VADDPD — never a fused multiply-add), zeroes its accumulators
// with VXORPS and adds terms in ascending tap/dimension order, so a lane
// holds exactly what the scalar loop in simd.go computes for that pixel or
// row. Each ends with VZEROUPPER so the SSE code around it pays no
// transition penalty.

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

//go:build amd64

#include "textflag.h"

// Float GEMM microkernels. Each C element lives in one YMM lane for the
// whole k loop: the lane starts from the stored C value and receives one
// VMULPD-rounded product followed by one VADDPD per k step, in ascending
// k. That is exactly the MULSD/ADDSD sequence of the scalar kernels in
// gemm.go (Go does not fuse multiply-add on amd64), so the results are
// bit-identical. There is deliberately no FMA here.

// ntRow adds one k step of one A row (byte offset AX from aptr) times
// the 8-column packed panel row held in Y8/Y9 into accLo/accHi.
#define ntRow(aptr, accLo, accHi) \
	VBROADCASTSD (aptr)(AX*1), Y10; \
	VMULPD       Y10, Y8, Y11;      \
	VMULPD       Y10, Y9, Y12;      \
	VADDPD       Y11, accLo, accLo; \
	VADDPD       Y12, accHi, accHi

// func gemmNTKernel4x8(c *float64, ldc int, a *float64, lda int, b *float64, k int)
//
// C[r][0:8] += Σ_p A[r][p] * B[p][0:8] for rows r = 0..3, where C and A
// are row-major with leading dimensions ldc and lda (elements) and B is a
// packed panel of k rows of 8 contiguous values. k must be positive.
TEXT ·gemmNTKernel4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ k+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9

	LEAQ (DI)(R8*1), R10  // C row 1
	LEAQ (R10)(R8*1), R11 // C row 2
	LEAQ (R11)(R8*1), R12 // C row 3
	LEAQ (SI)(R9*1), R13  // A row 1
	LEAQ (R13)(R9*1), R14 // A row 2
	LEAQ (R14)(R9*1), R15 // A row 3

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	VMOVUPD (R11), Y4
	VMOVUPD 32(R11), Y5
	VMOVUPD (R12), Y6
	VMOVUPD 32(R12), Y7

	XORQ AX, AX // byte offset of A[.][p]

nt4loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ntRow(SI, Y0, Y1)
	ntRow(R13, Y2, Y3)
	ntRow(R14, Y4, Y5)
	ntRow(R15, Y6, Y7)
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  nt4loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, 32(R10)
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)
	VMOVUPD Y6, (R12)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET

// func gemmNTKernel2x8(c *float64, ldc int, a *float64, lda int, b *float64, k int)
//
// The two-row remainder kernel: gemmNTKernel4x8 for rows r = 0..1.
TEXT ·gemmNTKernel2x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ k+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (DI)(R8*1), R10 // C row 1
	LEAQ (SI)(R9*1), R13 // A row 1

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	XORQ    AX, AX

nt2loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ntRow(SI, Y0, Y1)
	ntRow(R13, Y2, Y3)
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  nt2loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, 32(R10)
	VZEROUPPER
	RET

// func gemmNTKernel1x8(c *float64, a *float64, b *float64, k int)
//
// The row-remainder kernel: C[0:8] += Σ_p A[p] * B[p][0:8] for one row,
// over the same packed panel layout. k must be positive.
TEXT ·gemmNTKernel1x8(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX

	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	XORQ    AX, AX

nt1loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ntRow(SI, Y0, Y1)
	ADDQ $8, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  nt1loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// axpyStep adds av*B[p][j + off .. +4] into acc, av broadcast in Y4.
#define axpyStep(off, tmp, acc) \
	VMULPD off(R14), Y4, tmp; \
	VADDPD tmp, acc, acc

// func axpyRows(c *float64, n int, a *float64, as int, b *float64, bs int, k int)
//
// C[j] += Σ_p a[p*as] * B[p*bs + j] for j in [0, n), skipping every p
// whose A value is ±0 (the zero-skip of the scalar Gemm/GemmTN). Columns
// run 16 at a time in four accumulators, then 4 at a time; n must be a
// multiple of 4 and k positive. Strides are in elements.
TEXT ·axpyRows(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R9
	MOVQ b+32(FP), BX
	MOVQ bs+40(FP), R10
	MOVQ k+48(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	XORQ R12, R12 // byte offset of column j

ax16:
	LEAQ 128(R12), AX
	CMPQ AX, R8
	JGT  ax4
	VMOVUPD (DI)(R12*1), Y0
	VMOVUPD 32(DI)(R12*1), Y1
	VMOVUPD 64(DI)(R12*1), Y2
	VMOVUPD 96(DI)(R12*1), Y3
	MOVQ    SI, R13
	LEAQ    (BX)(R12*1), R14
	MOVQ    R11, CX

ax16p:
	MOVQ (R13), DX
	SHLQ $1, DX // ±0 iff every bit but the sign is clear
	JZ   ax16skip
	VBROADCASTSD (R13), Y4
	axpyStep(0, Y5, Y0)
	axpyStep(32, Y6, Y1)
	axpyStep(64, Y7, Y2)
	axpyStep(96, Y8, Y3)

ax16skip:
	ADDQ R9, R13
	ADDQ R10, R14
	DECQ CX
	JNZ  ax16p
	VMOVUPD Y0, (DI)(R12*1)
	VMOVUPD Y1, 32(DI)(R12*1)
	VMOVUPD Y2, 64(DI)(R12*1)
	VMOVUPD Y3, 96(DI)(R12*1)
	ADDQ    $128, R12
	JMP     ax16

ax4:
	CMPQ R12, R8
	JGE  axdone
	VMOVUPD (DI)(R12*1), Y0
	MOVQ    SI, R13
	LEAQ    (BX)(R12*1), R14
	MOVQ    R11, CX

ax4p:
	MOVQ (R13), DX
	SHLQ $1, DX
	JZ   ax4skip
	VBROADCASTSD (R13), Y4
	axpyStep(0, Y5, Y0)

ax4skip:
	ADDQ R9, R13
	ADDQ R10, R14
	DECQ CX
	JNZ  ax4p
	VMOVUPD Y0, (DI)(R12*1)
	ADDQ    $32, R12
	JMP     ax4

axdone:
	VZEROUPPER
	RET

// packPair transposes columns p, p+1 (byte offset AX) of four B rows
// ra..rd into the panel-row halves lo (column p) and hi (column p+1):
// each 128-bit load takes two consecutive values of one row, and the
// unpacks interleave rows ra/rb and rc/rd lane by lane.
#define packPair(ra, rb, rc, rd, lo, hi) \
	VMOVUPD     (ra)(AX*1), X0;          \
	VINSERTF128 $1, (rc)(AX*1), Y0, Y0;  \
	VMOVUPD     (rb)(AX*1), X1;          \
	VINSERTF128 $1, (rd)(AX*1), Y1, Y1;  \
	VUNPCKLPD   Y1, Y0, lo;              \
	VUNPCKHPD   Y1, Y0, hi

// func packNTPanel8(dst *float64, src *float64, ld int, k int)
//
// dst[p*8 + r] = src[r*ld + p] for r < 8, p < k: one 8-column panel of
// the packed GemmNT layout from eight rows of B with leading dimension
// ld (elements). k must be positive.
TEXT ·packNTPanel8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ k+24(FP), CX
	SHLQ $3, R8
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	LEAQ (R13)(R8*1), R14
	LEAQ (R14)(R8*1), R15

	XORQ AX, AX // byte offset of column p
	MOVQ CX, DX
	SHRQ $1, DX // column pairs
	JZ   packlast

packloop:
	packPair(SI, R9, R10, R11, Y2, Y3)
	packPair(R12, R13, R14, R15, Y4, Y5)
	VMOVUPD Y2, (DI)
	VMOVUPD Y4, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y5, 96(DI)
	ADDQ    $16, AX
	ADDQ    $128, DI
	DECQ    DX
	JNZ     packloop

packlast:
	TESTQ $1, CX
	JZ    packdone
	MOVSD (SI)(AX*1), X0
	MOVSD X0, (DI)
	MOVSD (R9)(AX*1), X0
	MOVSD X0, 8(DI)
	MOVSD (R10)(AX*1), X0
	MOVSD X0, 16(DI)
	MOVSD (R11)(AX*1), X0
	MOVSD X0, 24(DI)
	MOVSD (R12)(AX*1), X0
	MOVSD X0, 32(DI)
	MOVSD (R13)(AX*1), X0
	MOVSD X0, 40(DI)
	MOVSD (R14)(AX*1), X0
	MOVSD X0, 48(DI)
	MOVSD (R15)(AX*1), X0
	MOVSD X0, 56(DI)

packdone:
	VZEROUPPER
	RET

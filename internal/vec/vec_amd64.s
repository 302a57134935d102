//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 micro-kernels. Every function processes whole vector groups only
// (the Go wrappers in dispatch_amd64.go handle tails), uses quiet
// ordered compares (no FP exceptions, NaN compares false), and ends with
// VZEROUPPER to avoid AVX/SSE transition stalls in the caller.

// func cmpEqF64Asm(vals *float64, want float64, mask *uint64, words int)
//
// Builds one 64-bit mask word per 64 input rows: 16 VCMPPD/VMOVMSKPD
// steps of 4 lanes each, shifted into place. EQ_OQ (imm 0): NaN never
// matches, ±0 compare equal — identical to Go's ==.
TEXT ·cmpEqF64Asm(SB), NOSPLIT, $0-32
	MOVQ         vals+0(FP), SI
	MOVQ         mask+16(FP), DI
	MOVQ         words+24(FP), R10
	VBROADCASTSD want+8(FP), Y0

word_f64:
	TESTQ R10, R10
	JZ    done_f64
	XORQ  R8, R8
	XORQ  CX, CX

quad_f64:
	VCMPPD    $0, (SI), Y0, Y1
	VMOVMSKPD Y1, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $32, SI
	ADDQ      $4, CX
	CMPQ      CX, $64
	JL        quad_f64
	MOVQ      R8, (DI)
	ADDQ      $8, DI
	DECQ      R10
	JMP       word_f64

done_f64:
	VZEROUPPER
	RET

// func cmpEqI32Asm(codes *int32, want int32, mask *uint64, words int)
//
// One mask word per 64 codes: 8 VPCMPEQD/VMOVMSKPS steps of 8 lanes.
TEXT ·cmpEqI32Asm(SB), NOSPLIT, $0-32
	MOVQ         codes+0(FP), SI
	MOVQ         mask+16(FP), DI
	MOVQ         words+24(FP), R10
	MOVL         want+8(FP), AX
	MOVQ         AX, X0
	VPBROADCASTD X0, Y0

word_i32:
	TESTQ R10, R10
	JZ    done_i32
	XORQ  R8, R8
	XORQ  CX, CX

oct_i32:
	VMOVDQU   (SI), Y1
	VPCMPEQD  Y0, Y1, Y1
	VMOVMSKPS Y1, AX
	SHLQ      CX, AX
	ORQ       AX, R8
	ADDQ      $32, SI
	ADDQ      $8, CX
	CMPQ      CX, $64
	JL        oct_i32
	MOVQ      R8, (DI)
	ADDQ      $8, DI
	DECQ      R10
	JMP       word_i32

done_i32:
	VZEROUPPER
	RET

// func countNegI32Asm(codes *int32, octs int) int64
//
// Counts negative codes (sign bits) 8 at a time: VMOVMSKPS + POPCNT.
TEXT ·countNegI32Asm(SB), NOSPLIT, $0-24
	MOVQ codes+0(FP), SI
	MOVQ octs+8(FP), R10
	XORQ R8, R8

oct_neg:
	TESTQ     R10, R10
	JZ        done_neg
	VMOVDQU   (SI), Y1
	VMOVMSKPS Y1, AX
	POPCNTQ   AX, AX
	ADDQ      AX, R8
	ADDQ      $32, SI
	DECQ      R10
	JMP       oct_neg

done_neg:
	MOVQ R8, ret+16(FP)
	VZEROUPPER
	RET

// func minMaxF64Asm(vals *float64, quads int, out *[8]float64)
//
// Lane-parallel NaN-skipping min/max fold. out arrives seeded with
// {+Inf x4, -Inf x4}; LT_OQ/GT_OQ compares are false for NaN lanes, so
// NaNs never replace an accumulator. The Go wrapper folds the 4+4 lane
// partials (so ±0 may resolve to either sign — documented in MinMaxF64).
TEXT ·minMaxF64Asm(SB), NOSPLIT, $0-24
	MOVQ    vals+0(FP), SI
	MOVQ    quads+8(FP), R10
	MOVQ    out+16(FP), DI
	VMOVUPD (DI), Y0      // running min lanes
	VMOVUPD 32(DI), Y1    // running max lanes

quad_mm:
	TESTQ     R10, R10
	JZ        done_mm
	VMOVUPD   (SI), Y2
	VCMPPD    $0x11, Y0, Y2, Y3  // LT_OQ: v < min
	VBLENDVPD Y3, Y2, Y0, Y0
	VCMPPD    $0x1e, Y1, Y2, Y3  // GT_OQ: v > max
	VBLENDVPD Y3, Y2, Y1, Y1
	ADDQ      $32, SI
	DECQ      R10
	JMP       quad_mm

done_mm:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

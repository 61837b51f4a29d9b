//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The vector tier of the counting sort's mapping pass (README.md, "Vector
// kernels"): labelPts is labelPoints' loop, spanRects is spanPass' loop,
// sixteen coordinates an instruction. Each makes the scalar mapper's
// subtraction and product in the same operand order (coordinate minus the
// space's minimum, times the inverse width), then axisIndex's clamp:
//
//	f > 0   (VCMPPS GT_OQ, false for NaN)  else 0
//	f >= n  (VCMPPS GE_OQ)                 then n-1
//	otherwise the truncation of f          (VCVTTPS2DQ)
//
// so NaN, -0 and every negative map to 0, everything at or past n to n-1,
// and the conversion's out-of-range result is never kept. K1 holds the
// block's live lanes: all of them, or those of the last block's len%width
// objects, so that neither the load nor the store touches anything past
// len(pts) or len(rects) objects. The Go wrappers have already cut the
// output to that length.

// CLAMP leaves in Z2 the clamped cell indices of the sixteen products in
// Z1: Z10 holds the float32 limits n, Z12 the int32 n-1, Z14 zero.
#define CLAMP \
	VCMPPS $0x1e, Z14, Z1, K2; \
	VCMPPS $0x1d, Z10, Z1, K3; \
	VCVTTPS2DQ.Z Z1, K2, Z2; \
	VMOVDQA32 Z12, K3, Z2

// LIMITS takes the int32 limits in Z9 and leaves them as float32 in Z10,
// n-1 in Z12 and zero in Z14.
#define LIMITS \
	VCVTDQ2PS Z9, Z10; \
	VPTERNLOGD $0xff, Z11, Z11, Z11; \
	VPADDD Z11, Z9, Z12; \
	VPXORD Z14, Z14, Z14

// func labelPts(pts []geom.Point, cellOf []uint32, m *columnMapper)
//
// Eight points a block, as they lie in memory: x0 y0 x1 y1 … x7 y7, each
// point one qword. The mapper is laid out the same way, [minX minY] and
// [invCol invRow] in every qword, so x takes the column mapping and y the
// row mapping with no shuffle. A qword's clamped [col row] becomes
// row*cols + col in its low dword (VPSRLQ, VPMULUDQ by cols, VPADDD; the
// high dword is discarded), and VPMOVQD stores the eight low dwords.
TEXT ·labelPts(SB), NOSPLIT, $0-56
	MOVQ pts_base+0(FP), SI
	MOVQ pts_len+8(FP), CX
	MOVQ cellOf_base+24(FP), DI
	MOVQ m+48(FP), DX
	VPBROADCASTQ columnMapper_minX(DX), Z6
	VBROADCASTSS columnMapper_invCol(DX), Z7
	VBROADCASTSS columnMapper_invRow(DX), Z8
	VPUNPCKLDQ Z8, Z7, Z7
	MOVQ columnMapper_cols(DX), R8
	MOVQ columnMapper_rows(DX), R9
	VPBROADCASTD R8, Z9
	VPBROADCASTD R9, Z8
	VPUNPCKLDQ Z8, Z9, Z9 // [cols rows]: VPMULUDQ reads the cols
	LIMITS
	MOVL $0xff, R10
	KMOVW R10, K1
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $8
	JGE  block
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K1
block:
	VMOVDQU64.Z (SI), K1, Z1
	VSUBPS Z6, Z1, Z1
	VMULPS Z7, Z1, Z1
	CLAMP
	VPSRLQ $32, Z2, Z3
	VPMULUDQ Z9, Z3, Z3
	VPADDD Z2, Z3, Z3
	VPMOVQD Z3, K1, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JG   loop
done:
	VZEROUPPER
	RET

// func spanRects(rects []geom.Rect, spans []cellSpan, m *cellMapper)
//
// Four rectangles a block, MinX MinY MaxX MaxY each, against [minX minY]
// in every qword and one inverse width: the four products of spanOf. The
// clamped dwords of a rectangle, x0 y0 x1 y1, are put in cellSpan's order
// x0 x1 y0 y1 (VPSHUFD $0xD8) and narrowed to uint16 by the store itself
// (VPMOVDW), under K1's four word lanes a rectangle.
TEXT ·spanRects(SB), NOSPLIT, $0-56
	MOVQ rects_base+0(FP), SI
	MOVQ rects_len+8(FP), CX
	MOVQ spans_base+24(FP), DI
	MOVQ m+48(FP), DX
	VPBROADCASTQ cellMapper_minX(DX), Z6
	VBROADCASTSS cellMapper_invCell(DX), Z7
	MOVQ cellMapper_cps(DX), R8
	VPBROADCASTD R8, Z9
	LIMITS
	MOVL $0xffff, R10
	KMOVW R10, K1
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $4
	JGE  block
	MOVQ CX, R11
	SHLL $2, CX
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K1
	MOVQ R11, CX
block:
	VMOVUPS.Z (SI), K1, Z1
	VSUBPS Z6, Z1, Z1
	VMULPS Z7, Z1, Z1
	CLAMP
	VPSHUFD $0xd8, Z2, Z2
	VPMOVDW Z2, K1, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JG   loop
done:
	VZEROUPPER
	RET

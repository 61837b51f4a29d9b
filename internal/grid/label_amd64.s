//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The vector tier of the counting sort's mapping pass (README.md, "Vector
// kernels"): labelPts is labelPoints' loop, quantPts quantPoints', spanRects
// is spanPass' loop and quantFill fillQuanta's, sixteen coordinates an
// instruction. Each makes the scalar mapper's subtraction and product in
// the same operand order (coordinate minus the space's minimum, times the
// inverse width), then axisIndex's clamp:
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

// CLAMP leaves in out the clamped indices of the sixteen products in in:
// flim holds the float32 limits n, ilim the int32 n-1, Z14 zero.
#define CLAMP(in, out, flim, ilim) \
	VCMPPS $0x1e, Z14, in, K2; \
	VCMPPS $0x1d, flim, in, K3; \
	VCVTTPS2DQ.Z in, K2, out; \
	VMOVDQA32 ilim, K3, out

// LIMITS takes the int32 limits in Z9 and leaves them as float32 in Z10,
// n-1 in Z12 and zero in Z14.
#define LIMITS \
	VCVTDQ2PS Z9, Z10; \
	VPTERNLOGD $0xff, Z11, Z11, Z11; \
	VPADDD Z11, Z9, Z12; \
	VPXORD Z14, Z14, Z14

// func labelPts(pts []geom.Point, labels []uint32, m *columnMapper)
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
	MOVQ labels_base+24(FP), DI
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
	CLAMP(Z1, Z2, Z10, Z12)
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

// func quantPts(pts []geom.Point, labels, quanta []uint32, m *columnMapper)
//
// labelPts, and from the same differences p - min the quanta: times invQ
// in both lanes of a qword, clamped to [0, quantSteps), and the qword's
// [qx qy] packed to qx | qy<<16 in its low dword (VPSRLQ $16 moves qy to
// bit 16 and leaves nothing of qx, which is below 1<<16; VPORD adds qx).
TEXT ·quantPts(SB), NOSPLIT, $0-80
	MOVQ pts_base+0(FP), SI
	MOVQ pts_len+8(FP), CX
	MOVQ labels_base+24(FP), DI
	MOVQ quanta_base+48(FP), R11
	MOVQ m+72(FP), DX
	VPBROADCASTQ columnMapper_minX(DX), Z6
	VBROADCASTSS columnMapper_invCol(DX), Z7
	VBROADCASTSS columnMapper_invRow(DX), Z8
	VPUNPCKLDQ Z8, Z7, Z7
	VBROADCASTSS columnMapper_invQ(DX), Z15
	MOVQ columnMapper_cols(DX), R8
	MOVQ columnMapper_rows(DX), R9
	VPBROADCASTD R8, Z9
	VPBROADCASTD R9, Z8
	VPUNPCKLDQ Z8, Z9, Z9
	LIMITS
	MOVL $const_quantSteps, R10
	VPBROADCASTD R10, Z16
	VCVTDQ2PS Z16, Z17
	VPADDD Z11, Z16, Z18
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
	VMULPS Z15, Z1, Z4
	VMULPS Z7, Z1, Z1
	CLAMP(Z1, Z2, Z10, Z12)
	VPSRLQ $32, Z2, Z3
	VPMULUDQ Z9, Z3, Z3
	VPADDD Z2, Z3, Z3
	VPMOVQD Z3, K1, (DI)
	CLAMP(Z4, Z5, Z17, Z18)
	VPSRLQ $16, Z5, Z3
	VPORD Z5, Z3, Z3
	VPMOVQD Z3, K1, (R11)
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $32, R11
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
	CLAMP(Z1, Z2, Z10, Z12)
	VPSHUFD $0xd8, Z2, Z2
	VPMOVDW Z2, K1, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JG   loop
done:
	VZEROUPPER
	RET

// QUANT_EDGE writes the quanta of one edge of the block's sixteen rects to
// plane: the edge gathered at byte offset off of each rect (Z0 holds the
// rects' first dword indices), less the axis' minimum min, times invQ,
// clamped, and xor'd with x (0, or quantSteps-1 to complement a min edge).
#define QUANT_EDGE(off, min, x, plane) \
	KMOVW K1, K4; \
	VPGATHERDD off(BX)(Z0*4), K4, Z1; \
	VSUBPS min, Z1, Z1; \
	VMULPS Z8, Z1, Z1; \
	CLAMP(Z1, Z2, Z10, Z12); \
	VPXORD x, Z2, Z2; \
	VPMOVDW Z2, K1, (plane)(R13*2)

// func quantFill(ids []uint32, rects []geom.Rect, p0, p1, p2, p3 []uint16, m *columnMapper) int
//
// fillQuanta's loop, sixteen arena slots a block: the four edges of the
// slots' rects are gathered an edge at a time (VPGATHERDD at the rect's
// first dword index, id*4, and the edge's offset) and mapped as quantaOf
// maps them, each plane's uint16s narrowed out of the dwords by the store
// itself (VPMOVDW) under K1. Returns len(ids), or -1 without finishing when
// a block holds an ID at or past len(rects), or past 1<<29 (the index
// must not reach the sign bit).
TEXT ·quantFill(SB), NOSPLIT, $0-160
	MOVQ ids_base+0(FP), SI
	MOVQ ids_len+8(FP), CX
	MOVQ rects_base+24(FP), BX
	MOVQ rects_len+32(FP), R10
	MOVQ p0_base+48(FP), R8
	MOVQ p1_base+72(FP), R9
	MOVQ p2_base+96(FP), R11
	MOVQ p3_base+120(FP), R12
	MOVQ m+144(FP), DX
	MOVL $0x20000000, R13
	CMPQ R10, R13
	CMOVQHI R13, R10
	VPBROADCASTD R10, Z15
	VBROADCASTSS columnMapper_minX(DX), Z6
	VBROADCASTSS columnMapper_minY(DX), Z7
	VBROADCASTSS columnMapper_invQ(DX), Z8
	MOVL $const_quantSteps, R10
	VPBROADCASTD R10, Z9
	LIMITS
	VPXORD Z13, Z13, Z13
	MOVQ CX, AX
	XORL R13, R13
	MOVL $0xffff, R10
	KMOVW R10, K1
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $16
	JGE  block
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K1
block:
	VMOVDQU32.Z (SI)(R13*4), K1, Z0
	VPCMPUD $5, Z15, Z0, K1, K2 // id >= the bound
	KORTESTW K2, K2
	JNZ  bad
	VPSLLD $2, Z0, Z0
	QUANT_EDGE(0, Z6, Z12, R8)
	QUANT_EDGE(4, Z7, Z12, R9)
	QUANT_EDGE(8, Z6, Z13, R11)
	QUANT_EDGE(12, Z7, Z13, R12)
	ADDQ $16, R13
	SUBQ $16, CX
	JG   loop
done:
	VZEROUPPER
	MOVQ AX, ret+152(FP)
	RET
bad:
	MOVQ $-1, AX
	JMP  done

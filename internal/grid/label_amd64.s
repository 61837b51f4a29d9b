//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The vector tier of the counting sort's mapping pass (README.md, "Vector
// kernels"): quantPts is quantPoints' loop, spanRects is spanPass' loop
// and quantFill fillQuanta's, sixteen coordinates an instruction. All
// three make the scalar mapper's subtraction and product in the same
// operand order (coordinate minus the space's minimum, times the
// scale), then fixed's clamp, FIXED below, and derive everything else from
// that fixed-point position in integers: a cell, row or column as the high
// half of its VPMULUDQ product by the count, a quantum as its high 16
// bits. K1 holds the block's live lanes: all of them, or those of the
// last block's len%width objects, so that neither the load nor the store
// touches anything past len(pts) or len(rects) objects. The Go wrappers
// have already cut the output to that length.

// FIXED leaves in out the fixed-point positions of the sixteen products in
// in, axisIndex's clamp to [0, 2^32): 0 where f > 0 fails (VCMPPS GT_OQ
// against Z14's zero, false for NaN), and otherwise the unsigned
// truncation (VCVTTPS2UDQ), whose result for f >= 2^32, outside its range,
// is 2^32-1: the clamp's top.
#define FIXED(in, out) \
	VCMPPS $0x1e, Z14, in, K2; \
	VCVTTPS2UDQ.Z in, K2, out

// func quantPts(pts []geom.Point, labels, quanta []uint32, m *mapper)
//
// Eight points a block, as they lie in memory: x0 y0 x1 y1 … x7 y7, each
// point one qword, against [minX minY] in every qword and one scale. A
// qword's [fx fy] gives its column as the high dword of fx·cols and its
// row as that of fy·rows (VPMULUDQ reads a qword's low dword), and the
// label row·cols + column in its low dword, which VPMOVQD stores. The
// quanta are the high words of fx and fy, in that order: VPSRLD $16 brings
// them down and VPMOVDW stores the sixteen words, each point's pair as one
// uint32, under K5, K1's lanes two words a point.
TEXT ·quantPts(SB), NOSPLIT, $0-80
	MOVQ pts_base+0(FP), SI
	MOVQ pts_len+8(FP), CX
	MOVQ labels_base+24(FP), DI
	MOVQ quanta_base+48(FP), R11
	MOVQ m+72(FP), DX
	VPBROADCASTQ mapper_minX(DX), Z6
	VBROADCASTSS mapper_scale(DX), Z7
	VPBROADCASTQ mapper_cols(DX), Z8
	VPBROADCASTQ mapper_rows(DX), Z9
	VPXORD Z14, Z14, Z14
	MOVL $0xff, R10
	KMOVW R10, K1
	MOVL $0xffff, R10
	KMOVW R10, K5
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $8
	JGE  block
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K1
	MOVQ CX, R12
	SHLL $1, CX
	MOVL $1, R10
	SHLL CX, R10
	DECL R10
	KMOVW R10, K5
	MOVQ R12, CX
block:
	VMOVDQU64.Z (SI), K1, Z1
	VSUBPS Z6, Z1, Z1
	VMULPS Z7, Z1, Z1
	FIXED(Z1, Z2)
	VPMULUDQ Z8, Z2, Z3
	VPSRLQ $32, Z3, Z3 // column
	VPSRLQ $32, Z2, Z4
	VPMULUDQ Z9, Z4, Z4
	VPSRLQ $32, Z4, Z4 // row
	VPMULUDQ Z8, Z4, Z4
	VPADDD Z3, Z4, Z4
	VPMOVQD Z4, K1, (DI)
	VPSRLD $16, Z2, Z5
	VPMOVDW Z5, K5, (R11)
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $32, R11
	SUBQ $8, CX
	JG   loop
done:
	VZEROUPPER
	RET

// func spanRects(rects []geom.Rect, spans []cellSpan, m *mapper)
//
// Four rectangles a block, MinX MinY MaxX MaxY each, against [minX minY]
// in every qword and one scale: the four positions of corners. An x, in an
// even dword, has its cell in the high dword of its VPMULUDQ product by
// cols, shifted down into the even dword; a y, shifted down to be
// multiplied by rows, has it in the high dword, the odd one, where K4
// blends it in. The cells of a rectangle, x0 y0 x1 y1, are put in
// cellSpan's order x0 x1 y0 y1 (VPSHUFD $0xD8) and narrowed to uint16 by
// the store itself (VPMOVDW), under K1's four word lanes a rectangle.
TEXT ·spanRects(SB), NOSPLIT, $0-56
	MOVQ rects_base+0(FP), SI
	MOVQ rects_len+8(FP), CX
	MOVQ spans_base+24(FP), DI
	MOVQ m+48(FP), DX
	VPBROADCASTQ mapper_minX(DX), Z6
	VBROADCASTSS mapper_scale(DX), Z7
	VPBROADCASTQ mapper_cols(DX), Z8
	VPBROADCASTQ mapper_rows(DX), Z9
	VPXORD Z14, Z14, Z14
	MOVL $0xaaaa, R10
	KMOVW R10, K4
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
	FIXED(Z1, Z2)
	VPMULUDQ Z8, Z2, Z3
	VPSRLQ $32, Z3, Z3
	VPSRLQ $32, Z2, Z4
	VPMULUDQ Z9, Z4, Z4
	VMOVDQA32 Z4, K4, Z3
	VPSHUFD $0xd8, Z3, Z3
	VPMOVDW Z3, K1, (DI)
	ADDQ $64, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JG   loop
done:
	VZEROUPPER
	RET

// QUANT_EDGE writes the quanta of one edge of the block's sixteen rects to
// plane: the edge gathered at byte offset off of each rect (Z0 holds the
// rects' first dword indices), less the axis' minimum min, times the
// scale, mapped to its fixed-point position (FIXED), shifted down to its
// high 16 bits and xor'd with x (Z14's zero, or Z12's quantSteps-1 to
// complement a min edge).
#define QUANT_EDGE(off, min, x, plane) \
	KMOVW K1, K4; \
	VPGATHERDD off(BX)(Z0*4), K4, Z1; \
	VSUBPS min, Z1, Z1; \
	VMULPS Z8, Z1, Z1; \
	FIXED(Z1, Z2); \
	VPSRLD $16, Z2, Z2; \
	VPXORD x, Z2, Z2; \
	VPMOVDW Z2, K1, (plane)(R13*2)

// func quantFill(ids []uint32, rects []geom.Rect, p0, p1, p2, p3 []uint16, m *mapper) int
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
	VBROADCASTSS mapper_minX(DX), Z6
	VBROADCASTSS mapper_minY(DX), Z7
	VBROADCASTSS mapper_scale(DX), Z8
	MOVL $(const_quantSteps-1), R10
	VPBROADCASTD R10, Z12
	VPXORD Z14, Z14, Z14
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
	QUANT_EDGE(8, Z6, Z14, R11)
	QUANT_EDGE(12, Z7, Z14, R12)
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

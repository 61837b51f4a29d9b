//go:build amd64 && !purego

#include "textflag.h"

// The vector tier of the branchless filters (README.md, "Vector kernels").
// Each routine is the inner loop of its Go wrapper and nothing else: the
// same subtractions, in the same operand order, OR'd and sign-tested, with
// the write cursor advanced by the number of clear signs. The wrappers'
// scalar loops are the reference; a routine reads only its run and writes
// only dst[0:len(seg)], which reserve has already made room for.
//
// A block is one opmask's worth of candidates. K1 holds the block's lanes:
// all of them, or the low len%width of the last block, so that loads,
// gathers and the store touch nothing past the run. Survivors are compressed
// to the bottom of a register and stored under K1: the cursor never exceeds
// the number of candidates already read, so the store stays inside the
// reserved slots. (The memory-destination VPCOMPRESSD would need no K1 on
// the store but is microcoded on AMD parts.)

// Register use of the two point routines: SI ids, CX candidates left, DX the
// coordinates, DI dst, AX the cursor; Z5 sign bits, Z6 [MinX MinY] and Z8
// [MaxX MaxY] in every qword — interleaved from four dword loads, because the
// caller stored r a float at a time and a qword load across two of those
// stores waits for both to leave the store buffer.
#define POINT_SETUP \
	MOVQ seg_base+0(FP), SI; \
	MOVQ seg_len+8(FP), CX; \
	MOVQ dst_base+64(FP), DI; \
	MOVL $0x80000000, R11; \
	VPBROADCASTD R11, Z5; \
	VBROADCASTSS r_MinX+48(FP), Z6; \
	VBROADCASTSS r_MinY+52(FP), Z7; \
	VPUNPCKLDQ Z7, Z6, Z6; \
	VBROADCASTSS r_MaxX+56(FP), Z8; \
	VBROADCASTSS r_MaxY+60(FP), Z7; \
	VPUNPCKLDQ Z7, Z8, Z8; \
	XORL AX, AX; \
	MOVL $0xFF, R9; \
	KMOVW R9, K1

// TAIL_MASK leaves the low CX lanes of a block in K1.
#define TAIL_MASK \
	MOVL $1, R9; \
	SHLL CX, R9; \
	DECL R9; \
	KMOVW R9, K1

// POINT_TEST takes eight points in Z1 as [x y] qwords, their IDs in Y0:
// p - min and max - p put the scalar loop's four differences in each qword's
// two dwords, a point passes when neither dword of the OR has its sign set,
// and the survivors' IDs land at dst[AX:].
#define POINT_TEST \
	VSUBPS Z6, Z1, Z2; \
	VSUBPS Z1, Z8, Z3; \
	VPORD Z3, Z2, Z2; \
	VPTESTNMQ Z5, Z2, K1, K2; \
	VPCOMPRESSD.Z Y0, K2, Y4; \
	VMOVDQU32 Y4, K1, (DI)(AX*4); \
	KMOVW K2, R9; \
	POPCNTL R9, R9; \
	ADDQ R9, AX; \
	ADDQ $32, SI

// func filterPts(seg []uint32, pts []geom.Point, r geom.Rect, dst []uint32) int
//
// appendFilterPts' loop, eight candidates a block. Returns how many passed,
// or -1 without finishing when an ID may not be gathered: at or past
// len(pts), or past 1<<31 (the gather sign-extends its indices).
TEXT ·filterPts(SB), NOSPLIT, $0-96
	POINT_SETUP
	MOVQ pts_base+24(FP), DX
	MOVQ pts_len+32(FP), R10
	CMPQ R10, R11
	CMOVQHI R11, R10
	VPBROADCASTD R10, Y7
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $8
	JGE  block
	TAIL_MASK
block:
	VMOVDQU32.Z (SI), K1, Y0
	VPCMPUD $5, Y7, Y0, K1, K2 // id >= limit
	KORTESTW K2, K2
	JNZ  bad
	KMOVW K1, K3
	VPXORQ Z1, Z1, Z1
	VPGATHERDQ (DX)(Y0*8), K3, Z1
	POINT_TEST
	SUBQ $8, CX
	JG   loop
done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET
bad:
	MOVQ $-1, AX
	JMP  done

// func filterXY(seg []uint32, xy []float32, r geom.Rect, dst []uint32) int
//
// appendFilterXY's loop: filterPts with one 64-byte load of the run's own
// coordinate stream where the gather was.
TEXT ·filterXY(SB), NOSPLIT, $0-96
	POINT_SETUP
	MOVQ xy_base+24(FP), DX
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $8
	JGE  block
	TAIL_MASK
block:
	VMOVDQU32.Z (SI), K1, Y0
	VMOVDQU64.Z (DX), K1, Z1
	POINT_TEST
	ADDQ $64, DX
	SUBQ $8, CX
	JG   loop
done:
	VZEROUPPER
	MOVQ AX, ret+88(FP)
	RET

// func filterPlanes(seg, dst []uint32, n int, p0 []float32, b0 float32, p1 []float32, b1 float32, p2 []float32, b2 float32, p3 []float32, b3 float32) int
//
// The loop of appendMasked1 / appendMasked2 / appendMasked (n = 1, 2, 4),
// sixteen candidates a block: the OR of plane[j] - bound over the first n
// planes, each as long as seg. R13 is the byte offset into all of them.
TEXT ·filterPlanes(SB), NOSPLIT, $0-192
	MOVQ seg_base+0(FP), SI
	MOVQ seg_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	MOVQ n+48(FP), R12
	MOVQ p0_base+56(FP), R8
	MOVQ p1_base+88(FP), R10
	MOVQ p2_base+120(FP), R11
	MOVQ p3_base+152(FP), BX
	MOVL $0x80000000, R9
	VPBROADCASTD R9, Z5
	XORL AX, AX
	XORL R13, R13
	MOVL $0xFFFF, R9
	KMOVW R9, K1
	TESTQ CX, CX
	JLE  done
loop:
	CMPQ CX, $16
	JGE  block
	TAIL_MASK
block:
	VMOVDQU32.Z (SI)(R13*1), K1, Z0
	VMOVUPS.Z (R8)(R13*1), K1, Z1
	VSUBPS.BCST b0+80(FP), Z1, Z1
	CMPQ R12, $1
	JE   test
	VMOVUPS.Z (R10)(R13*1), K1, Z2
	VSUBPS.BCST b1+112(FP), Z2, Z2
	VPORD Z2, Z1, Z1
	CMPQ R12, $2
	JE   test
	VMOVUPS.Z (R11)(R13*1), K1, Z2
	VSUBPS.BCST b2+144(FP), Z2, Z2
	VMOVUPS.Z (BX)(R13*1), K1, Z3
	VSUBPS.BCST b3+176(FP), Z3, Z3
	VPORD Z3, Z2, Z2
	VPORD Z2, Z1, Z1
test:
	VPTESTNMD Z5, Z1, K1, K2
	VPCOMPRESSD.Z Z0, K2, Z4
	VMOVDQU32 Z4, K1, (DI)(AX*4)
	KMOVW K2, R9
	POPCNTL R9, R9
	ADDQ R9, AX
	ADDQ $64, R13
	SUBQ $16, CX
	JG   loop
done:
	VZEROUPPER
	MOVQ AX, ret+184(FP)
	RET

// AVX2+FMA float32 microkernels. Selected at init by dispatch_amd64.go when
// the CPU supports AVX2, FMA and OS-enabled YMM state; the portable scalar
// kernels (kernels_scalar.go) remain the fallback.
//
// Reduction order is fixed and deterministic per kernel: two 8-lane FMA
// accumulators over 16-element blocks, one 8-lane block, a lane-ordered
// horizontal sum, then a scalar-FMA tail. Because the lane split and the
// FMA contractions differ from the scalar kernels' 4-way unroll, results
// may differ from scalar by normal float32 rounding (see DESIGN.md,
// "Kernel layer"); equivalence_test.go bounds the divergence.

#include "textflag.h"

// func dotAVX2(a, b []float32) float32
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0          // accumulator 0
	VXORPS Y1, Y1, Y1          // accumulator 1
	MOVQ CX, BX
	SHRQ $4, BX                // 16-element blocks
	JZ   dot8
dot16:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VFMADD231PS (DI), Y2, Y0   // Y0 += a[0:8] * b[0:8]
	VFMADD231PS 32(DI), Y3, Y1 // Y1 += a[8:16] * b[8:16]
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  dot16
dot8:
	TESTQ $8, CX
	JZ    dotreduce
	VMOVUPS (SI), Y2
	VFMADD231PS (DI), Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI
dotreduce:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0          // 4 lanes
	VSHUFPS $0xb1, X0, X0, X1  // [1 0 3 2]
	VADDPS X1, X0, X0
	VSHUFPS $0x4e, X0, X0, X1  // [2 3 0 1]
	VADDSS X1, X0, X0          // lane 0 = total
	ANDQ $7, CX
	JZ   dotdone
dottail:
	VMOVSS (SI), X2
	VMOVSS (DI), X3
	VFMADD231SS X3, X2, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dottail
dotdone:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func sqL2AVX2(a, b []float32) float32
TEXT ·sqL2AVX2(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DI
	MOVQ a_len+8(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   sq8
sq16:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VSUBPS (DI), Y2, Y2        // Y2 = a - b
	VSUBPS 32(DI), Y3, Y3
	VFMADD231PS Y2, Y2, Y0     // Y0 += d*d
	VFMADD231PS Y3, Y3, Y1
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  sq16
sq8:
	TESTQ $8, CX
	JZ    sqreduce
	VMOVUPS (SI), Y2
	VSUBPS (DI), Y2, Y2
	VFMADD231PS Y2, Y2, Y0
	ADDQ $32, SI
	ADDQ $32, DI
sqreduce:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VSHUFPS $0xb1, X0, X0, X1
	VADDPS X1, X0, X0
	VSHUFPS $0x4e, X0, X0, X1
	VADDSS X1, X0, X0
	ANDQ $7, CX
	JZ   sqdone
sqtail:
	VMOVSS (SI), X2
	VSUBSS (DI), X2, X2
	VFMADD231SS X2, X2, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  sqtail
sqdone:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// Lane indices 0..7 for building the LUT row-offset ramp.
DATA lutsumLanes<>+0(SB)/4, $0
DATA lutsumLanes<>+4(SB)/4, $1
DATA lutsumLanes<>+8(SB)/4, $2
DATA lutsumLanes<>+12(SB)/4, $3
DATA lutsumLanes<>+16(SB)/4, $4
DATA lutsumLanes<>+20(SB)/4, $5
DATA lutsumLanes<>+24(SB)/4, $6
DATA lutsumLanes<>+28(SB)/4, $7
GLOBL lutsumLanes<>(SB), RODATA, $32

// func lutSumAVX2(lut []float32, k int, code []uint8) float32
//
// ADC lookup-table sum: Σ_s lut[s*k + code[s]]. Eight subspaces per
// iteration: the 8 code bytes are zero-extended to dwords (VPMOVZXBD),
// offset by the row ramp [0,k,...,7k] (advanced by 8k each block), and
// gathered in one VGATHERDPS. Pure float32 additions in lane order, so
// unlike the FMA kernels the result is bit-identical to the scalar
// reference whenever the adds associate identically — equivalence tests
// still use the shared tolerance model. Contract (enforced by the public
// wrapper / encoder): len(lut) == len(code)*k, code[s] < k, and dword
// offsets fit in int32.
TEXT ·lutSumAVX2(SB), NOSPLIT, $0-60
	MOVQ lut_base+0(FP), SI
	MOVQ k+24(FP), DX
	MOVQ code_base+32(FP), DI
	MOVQ code_len+40(FP), CX
	VXORPS Y0, Y0, Y0
	MOVQ CX, BX
	SHRQ $3, BX                // 8-code blocks
	JZ   lutreduce
	VMOVDQU lutsumLanes<>(SB), Y1
	VPBROADCASTD k+24(FP), Y5  // low 32 bits of k (k ≤ 256)
	VPMULLD Y5, Y1, Y1         // Y1 = [0,k,2k,...,7k]
	VPSLLD $3, Y5, Y5          // Y5 = broadcast(8k)
lut8:
	VPMOVZXBD (DI), Y2         // 8 code bytes → dwords
	VPADDD Y1, Y2, Y2          // + row offsets
	VPCMPEQD Y4, Y4, Y4        // gather consumes its mask; rebuild
	VGATHERDPS Y4, (SI)(Y2*4), Y3
	VADDPS Y3, Y0, Y0
	VPADDD Y5, Y1, Y1          // ramp advances 8 rows
	ADDQ $8, DI
	DECQ BX
	JNZ  lut8
lutreduce:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VSHUFPS $0xb1, X0, X0, X1
	VADDPS X1, X0, X0
	VSHUFPS $0x4e, X0, X0, X1
	VADDSS X1, X0, X0
	MOVQ CX, AX
	ANDQ $-8, AX               // codes consumed by the vector loop
	IMULQ DX, AX
	SHLQ $2, AX                // byte offset of the first tail row
	ADDQ AX, SI
	MOVQ DX, R9
	SHLQ $2, R9                // row stride in bytes
	ANDQ $7, CX
	JZ   lutdone
luttail:
	MOVBQZX (DI), BX
	VADDSS (SI)(BX*4), X0, X0
	ADDQ R9, SI
	INCQ DI
	DECQ CX
	JNZ  luttail
lutdone:
	VZEROUPPER
	MOVSS X0, ret+56(FP)
	RET

// func axpyAVX2(alpha float32, x, y []float32)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y3
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   ax8
ax16:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y5
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y6
	VFMADD231PS Y3, Y2, Y4     // y += alpha * x
	VFMADD231PS Y3, Y5, Y6
	VMOVUPS Y4, (DI)
	VMOVUPS Y6, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  ax16
ax8:
	TESTQ $8, CX
	JZ    axtail
	VMOVUPS (SI), Y2
	VMOVUPS (DI), Y4
	VFMADD231PS Y3, Y2, Y4
	VMOVUPS Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
axtail:
	ANDQ $7, CX
	JZ   axdone
axtail1:
	VMOVSS (SI), X2
	VMOVSS (DI), X4
	VFMADD231SS X3, X2, X4
	VMOVSS X4, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  axtail1
axdone:
	VZEROUPPER
	RET

// func mulRowAVX2(dst, x, w []float32)
//
// One row of a dense product: dst = x·W for the row-major len(x)×len(dst)
// matrix w. The output columns stay in registers across all of x — eight
// 8-lane accumulators per 64 columns, then two per 16, then one per 8, then
// one scalar column at a time — where the AXPY loop (clear dst, then
// axpyAVX2(x[k], row k of W, dst) for every k) reloads and re-stores the
// row once per input. Per column the operation sequence is that loop's: the
// accumulator starts at +0, takes VFMADD231 with the same operand roles
// (accumulator, weight, broadcast x[k]) in ascending k, and skips an x[k]
// equal to ±0 (a NaN is not skipped), so every dst[c] is bit-equal to it,
// NaN payloads included. Contract (enforced by the public wrapper):
// len(w) == len(x)*len(dst).
TEXT ·mulRowAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX     // columns left
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX      // inputs
	MOVQ w_base+48(FP), R8     // weight column of the next output column
	MOVQ CX, R9
	SHLQ $2, R9                // row stride in bytes
mr64:
	CMPQ CX, $64
	JLT  mr16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   mr64store
mr64k:
	TESTL $0x7fffffff, (R11)
	JZ   mr64next              // x[k] is ±0
	VBROADCASTSS (R11), Y8
	VMOVUPS (R10), Y9
	VMOVUPS 32(R10), Y10
	VMOVUPS 64(R10), Y11
	VMOVUPS 96(R10), Y12
	VFMADD231PS Y8, Y9, Y0     // acc += W[k, c:c+8] * x[k]
	VFMADD231PS Y8, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y8, Y12, Y3
	VMOVUPS 128(R10), Y9
	VMOVUPS 160(R10), Y10
	VMOVUPS 192(R10), Y11
	VMOVUPS 224(R10), Y12
	VFMADD231PS Y8, Y9, Y4
	VFMADD231PS Y8, Y10, Y5
	VFMADD231PS Y8, Y11, Y6
	VFMADD231PS Y8, Y12, Y7
mr64next:
	ADDQ $4, R11
	ADDQ R9, R10
	DECQ BX
	JNZ  mr64k
mr64store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R8
	SUBQ $64, CX
	JMP  mr64
mr16:
	CMPQ CX, $16
	JLT  mr8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   mr16store
mr16k:
	TESTL $0x7fffffff, (R11)
	JZ   mr16next
	VBROADCASTSS (R11), Y8
	VMOVUPS (R10), Y9
	VMOVUPS 32(R10), Y10
	VFMADD231PS Y8, Y9, Y0
	VFMADD231PS Y8, Y10, Y1
mr16next:
	ADDQ $4, R11
	ADDQ R9, R10
	DECQ BX
	JNZ  mr16k
mr16store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $16, CX
	JMP  mr16
mr8:
	CMPQ CX, $8
	JLT  mrtail
	VXORPS Y0, Y0, Y0
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   mr8store
mr8k:
	TESTL $0x7fffffff, (R11)
	JZ   mr8next
	VBROADCASTSS (R11), Y8
	VMOVUPS (R10), Y9
	VFMADD231PS Y8, Y9, Y0
mr8next:
	ADDQ $4, R11
	ADDQ R9, R10
	DECQ BX
	JNZ  mr8k
mr8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, CX
mrtail:
	TESTQ CX, CX
	JZ   mrdone
mr1:
	VXORPS X0, X0, X0
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   mr1store
mr1k:
	TESTL $0x7fffffff, (R11)
	JZ   mr1next
	VMOVSS (R11), X8
	VMOVSS (R10), X9
	VFMADD231SS X8, X9, X0
mr1next:
	ADDQ $4, R11
	ADDQ R9, R10
	DECQ BX
	JNZ  mr1k
mr1store:
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ $4, R8
	DECQ CX
	JNZ  mr1
mrdone:
	VZEROUPPER
	RET

// func segToCentroidsAVX2(dst, seg, cbT []float32)
//
// Segment-to-all-centroids: dst[c] = Σ_j (seg[j] − cbT[j*len(dst)+c])². Centroids are independent lanes: 32 at a time (four
// accumulators), then 8, then one, each lane running the same chain —
// broadcast seg[j], subtract the centroid-major row, FMA into the
// accumulator, ascending j from zero. The scalar tail uses the same
// subtract + FMA per step, so a centroid's bits do not depend on which
// block width covered it, on len(dst) or on alignment. Contract (enforced
// by the public wrapper): len(cbT) == len(seg)*len(dst).
TEXT ·segToCentroidsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX     // centroids left
	MOVQ seg_base+24(FP), SI
	MOVQ seg_len+32(FP), DX    // segment dims
	MOVQ cbT_base+48(FP), R8   // column of the next centroid
	MOVQ CX, R9
	SHLQ $2, R9                // row stride in bytes
seg32:
	CMPQ CX, $32
	JLT  seg8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   seg32store
seg32dim:
	VBROADCASTSS (R11), Y4
	VSUBPS (R10), Y4, Y5       // seg[j] − centroid coordinate
	VSUBPS 32(R10), Y4, Y6
	VSUBPS 64(R10), Y4, Y7
	VSUBPS 96(R10), Y4, Y8
	VFMADD231PS Y5, Y5, Y0
	VFMADD231PS Y6, Y6, Y1
	VFMADD231PS Y7, Y7, Y2
	VFMADD231PS Y8, Y8, Y3
	ADDQ R9, R10
	ADDQ $4, R11
	DECQ BX
	JNZ  seg32dim
seg32store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $32, CX
	JMP  seg32
seg8:
	CMPQ CX, $8
	JLT  seg1
	VXORPS Y0, Y0, Y0
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   seg8store
seg8dim:
	VBROADCASTSS (R11), Y4
	VSUBPS (R10), Y4, Y5
	VFMADD231PS Y5, Y5, Y0
	ADDQ R9, R10
	ADDQ $4, R11
	DECQ BX
	JNZ  seg8dim
seg8store:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $8, CX
	JMP  seg8
seg1:
	TESTQ CX, CX
	JZ   segdone
	VXORPS X0, X0, X0
	MOVQ R8, R10
	MOVQ SI, R11
	MOVQ DX, BX
	TESTQ BX, BX
	JZ   seg1store
seg1dim:
	VMOVSS (R11), X4
	VSUBSS (R10), X4, X5
	VFMADD231SS X5, X5, X0
	ADDQ R9, R10
	ADDQ $4, R11
	DECQ BX
	JNZ  seg1dim
seg1store:
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ $4, R8
	DECQ CX
	JMP  seg1
segdone:
	VZEROUPPER
	RET

// func lutSumRowsAVX2(dst, lut []float32, k int, codes []uint8, m int, ids []int32)
//
// Multi-row ADC sum: dst[i] = Σ_s lut[s*k + codes[ids[i]*m + s]]. Rows go
// through two at a time with their instruction streams interleaved, so two
// rows' gathers are in flight and the horizontal reduction of one overlaps
// the other's; an odd last row is paired with itself and stored once. Per
// row the operation sequence is exactly lutSumAVX2's — one 8-lane
// accumulator over 8-code blocks against the same offset ramp, the same
// lane-ordered reduction, the same sequential scalar tail — so every dst[i]
// is bit-equal to lutSumAVX2 on that row. The code row of the id four
// positions ahead is prefetched: candidate ids of a probed bin are
// scattered over the code buffer. One VZEROUPPER per call, not per row.
// Contract (enforced by the public wrapper): len(dst) ≥ len(ids),
// len(lut) == m*k, every row ids[i] inside codes, code bytes < k.
TEXT ·lutSumRowsAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ lut_base+24(FP), SI
	MOVQ k+48(FP), DX
	MOVQ codes_base+56(FP), R8
	MOVQ ids_base+88(FP), R10
	MOVQ ids_len+96(FP), R11   // rows left
	MOVQ m+80(FP), R12
	SHRQ $3, R12               // 8-code blocks per row
	VMOVDQU lutsumLanes<>(SB), Y6
	VPBROADCASTD k+48(FP), Y5  // low 32 bits of k (k ≤ 256)
	VPMULLD Y5, Y6, Y6         // Y6 = [0,k,2k,...,7k]
	VPSLLD $3, Y5, Y5          // Y5 = broadcast(8k)
	SHLQ $2, DX                // table row stride in bytes
rowpair:
	TESTQ R11, R11
	JLE  rowsdone
	MOVLQSX (R10), BX
	IMULQ m+80(FP), BX
	ADDQ R8, BX                // BX = code row A
	MOVQ BX, CX                // row B = row A unless a second id exists
	CMPQ R11, $1
	JEQ  rowsready
	MOVLQSX 4(R10), CX
	IMULQ m+80(FP), CX
	ADDQ R8, CX                // CX = code row B
	CMPQ R11, $5
	JLE  rowsready
	MOVLQSX 16(R10), AX
	IMULQ m+80(FP), AX
	PREFETCHT0 (R8)(AX*1)
	MOVLQSX 20(R10), AX
	IMULQ m+80(FP), AX
	PREFETCHT0 (R8)(AX*1)
rowsready:
	VXORPS Y0, Y0, Y0          // accumulator A
	VXORPS Y7, Y7, Y7          // accumulator B
	MOVQ R12, R9
	TESTQ R9, R9
	JZ   rowsreduce
	VMOVDQA Y6, Y1             // ramp restarts at table row 0
rows8:
	VPMOVZXBD (BX), Y2
	VPMOVZXBD (CX), Y8
	VPADDD Y1, Y2, Y2
	VPADDD Y1, Y8, Y8
	VPCMPEQD Y4, Y4, Y4        // gather consumes its mask; rebuild
	VPCMPEQD Y9, Y9, Y9
	VGATHERDPS Y4, (SI)(Y2*4), Y3
	VGATHERDPS Y9, (SI)(Y8*4), Y10
	VADDPS Y3, Y0, Y0
	VADDPS Y10, Y7, Y7
	VPADDD Y5, Y1, Y1          // ramp advances 8 table rows
	ADDQ $8, BX
	ADDQ $8, CX
	DECQ R9
	JNZ  rows8
rowsreduce:
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y7, X11
	VADDPS X1, X0, X0
	VADDPS X11, X7, X7
	VSHUFPS $0xb1, X0, X0, X1
	VSHUFPS $0xb1, X7, X7, X11
	VADDPS X1, X0, X0
	VADDPS X11, X7, X7
	VSHUFPS $0x4e, X0, X0, X1
	VSHUFPS $0x4e, X7, X7, X11
	VADDSS X1, X0, X0
	VADDSS X11, X7, X7
	MOVQ m+80(FP), R13
	ANDQ $7, R13               // codes past the last full block
	JZ   rowsstore
	MOVQ R12, AX
	SHLQ $3, AX
	IMULQ DX, AX
	ADDQ SI, AX                // first tail table row
rowstail:
	MOVBQZX (BX), R9
	VADDSS (AX)(R9*4), X0, X0
	MOVBQZX (CX), R9
	VADDSS (AX)(R9*4), X7, X7
	ADDQ DX, AX
	INCQ BX
	INCQ CX
	DECQ R13
	JNZ  rowstail
rowsstore:
	VMOVSS X0, (DI)
	CMPQ R11, $1
	JEQ  rowsdone
	VMOVSS X7, 4(DI)
	ADDQ $8, DI
	ADDQ $8, R10
	SUBQ $2, R11
	JMP  rowpair
rowsdone:
	VZEROUPPER
	RET

// func dotRowsAVX2(dst, q, data []float32, dim int, ids []int32)
//
// Multi-row dot product: dst[i] = q · data[ids[i]*dim:(ids[i]+1)*dim]. Rows
// go through four at a time, each with its own pair of 8-lane accumulators
// (Y0/Y1, Y2/Y3, Y4/Y5, Y6/Y7), so a 16-element query block is loaded once
// per four rows and eight independent FMA chains are in flight where
// dotAVX2 has two — the single-row kernel waits on FMA latency, this one on
// load throughput. Per row the operation sequence is exactly dotAVX2's with
// a = q and b = the row: the same 16-element blocking into the same two
// accumulators, the same 8-lane block, the same lane-ordered horizontal
// sum, the same sequential scalar-FMA tail — so every dst[i] is bit-equal
// to dotAVX2(q, row). A last group of fewer than four rows fills its spare
// slots with its first row and stores only the rows it has. The heads of
// the next group's rows are prefetched: candidate ids of a probed bin are
// scattered over the row buffer. One VZEROUPPER per call, not per row.
// Contract (enforced by the public wrapper): len(dst) ≥ len(ids),
// len(q) == dim, every row ids[i] inside data.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ q_base+24(FP), SI
	MOVQ data_base+48(FP), R8
	MOVQ dim+72(FP), DX
	MOVQ ids_base+80(FP), R10
	MOVQ ids_len+88(FP), R11   // rows left
drgroup:
	TESTQ R11, R11
	JLE  drdone
	MOVLQSX (R10), R9
	IMULQ DX, R9
	LEAQ (R8)(R9*4), R9        // R9 = row A
	MOVQ R9, R12               // rows B, C, D = row A unless they exist
	MOVQ R9, R13
	MOVQ R9, BX
	CMPQ R11, $2
	JLT  drready
	MOVLQSX 4(R10), R12
	IMULQ DX, R12
	LEAQ (R8)(R12*4), R12      // R12 = row B
	CMPQ R11, $3
	JLT  drready
	MOVLQSX 8(R10), R13
	IMULQ DX, R13
	LEAQ (R8)(R13*4), R13      // R13 = row C
	CMPQ R11, $4
	JLT  drready
	MOVLQSX 12(R10), BX
	IMULQ DX, BX
	LEAQ (R8)(BX*4), BX        // BX = row D
	CMPQ R11, $8
	JLT  drready
	MOVLQSX 16(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 20(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 24(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 28(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
drready:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, AX                // query cursor
	MOVQ DX, CX
	SHRQ $4, CX                // 16-element blocks
	JZ   dr8
dr16:
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VFMADD231PS (R9), Y8, Y0
	VFMADD231PS 32(R9), Y9, Y1
	VFMADD231PS (R12), Y8, Y2
	VFMADD231PS 32(R12), Y9, Y3
	VFMADD231PS (R13), Y8, Y4
	VFMADD231PS 32(R13), Y9, Y5
	VFMADD231PS (BX), Y8, Y6
	VFMADD231PS 32(BX), Y9, Y7
	ADDQ $64, AX
	ADDQ $64, R9
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, BX
	DECQ CX
	JNZ  dr16
dr8:
	TESTQ $8, DX
	JZ    drreduce
	VMOVUPS (AX), Y8
	VFMADD231PS (R9), Y8, Y0
	VFMADD231PS (R12), Y8, Y2
	VFMADD231PS (R13), Y8, Y4
	VFMADD231PS (BX), Y8, Y6
	ADDQ $32, AX
	ADDQ $32, R9
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, BX
drreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VEXTRACTF128 $1, Y4, X5
	VEXTRACTF128 $1, Y6, X7
	VADDPS X1, X0, X0          // 4 lanes per row
	VADDPS X3, X2, X2
	VADDPS X5, X4, X4
	VADDPS X7, X6, X6
	VSHUFPS $0xb1, X0, X0, X1  // [1 0 3 2]
	VSHUFPS $0xb1, X2, X2, X3
	VSHUFPS $0xb1, X4, X4, X5
	VSHUFPS $0xb1, X6, X6, X7
	VADDPS X1, X0, X0
	VADDPS X3, X2, X2
	VADDPS X5, X4, X4
	VADDPS X7, X6, X6
	VSHUFPS $0x4e, X0, X0, X1  // [2 3 0 1]
	VSHUFPS $0x4e, X2, X2, X3
	VSHUFPS $0x4e, X4, X4, X5
	VSHUFPS $0x4e, X6, X6, X7
	VADDSS X1, X0, X0          // lane 0 = row total
	VADDSS X3, X2, X2
	VADDSS X5, X4, X4
	VADDSS X7, X6, X6
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   drstore
drtail:
	VMOVSS (AX), X8
	VMOVSS (R9), X9
	VMOVSS (R12), X10
	VMOVSS (R13), X11
	VMOVSS (BX), X12
	VFMADD231SS X9, X8, X0
	VFMADD231SS X10, X8, X2
	VFMADD231SS X11, X8, X4
	VFMADD231SS X12, X8, X6
	ADDQ $4, AX
	ADDQ $4, R9
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ $4, BX
	DECQ CX
	JNZ  drtail
drstore:
	VMOVSS X0, (DI)
	CMPQ R11, $2
	JLT  drdone
	VMOVSS X2, 4(DI)
	CMPQ R11, $3
	JLT  drdone
	VMOVSS X4, 8(DI)
	CMPQ R11, $4
	JLT  drdone
	VMOVSS X6, 12(DI)
	ADDQ $16, DI
	ADDQ $16, R10
	SUBQ $4, R11
	JMP  drgroup
drdone:
	VZEROUPPER
	RET

// func sqL2RowsAVX2(dst, q, data []float32, dim int, ids []int32)
//
// Multi-row squared distance: dst[i] = Σ_j (q[j] − data[ids[i]*dim+j])².
// dotRowsAVX2's skeleton — four rows at a time, the pair of 8-lane
// accumulators Y0/Y1, Y2/Y3, Y4/Y5, Y6/Y7 per row, the query block loaded
// once per four rows, spare slots of a short last group filled with its
// first row, the next group's rows prefetched, one VZEROUPPER per call —
// with sqL2AVX2's operations: each block is VSUBPS (q minus the row) into a
// scratch register, then VFMADD231PS of the difference with itself into
// the row's accumulator. The 16- and 8-element blocking, the lane-ordered
// horizontal sum and the sequential subtract + scalar-FMA tail are
// sqL2AVX2's with a = q and b = the row, so every dst[i] is bit-equal to
// sqL2AVX2(q, row). Contract (enforced by the public wrapper): len(dst) ≥
// len(ids), len(q) == dim, every row ids[i] inside data.
TEXT ·sqL2RowsAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ q_base+24(FP), SI
	MOVQ data_base+48(FP), R8
	MOVQ dim+72(FP), DX
	MOVQ ids_base+80(FP), R10
	MOVQ ids_len+88(FP), R11   // rows left
sqrgroup:
	TESTQ R11, R11
	JLE  sqrdone
	MOVLQSX (R10), R9
	IMULQ DX, R9
	LEAQ (R8)(R9*4), R9        // R9 = row A
	MOVQ R9, R12               // rows B, C, D = row A unless they exist
	MOVQ R9, R13
	MOVQ R9, BX
	CMPQ R11, $2
	JLT  sqrready
	MOVLQSX 4(R10), R12
	IMULQ DX, R12
	LEAQ (R8)(R12*4), R12      // R12 = row B
	CMPQ R11, $3
	JLT  sqrready
	MOVLQSX 8(R10), R13
	IMULQ DX, R13
	LEAQ (R8)(R13*4), R13      // R13 = row C
	CMPQ R11, $4
	JLT  sqrready
	MOVLQSX 12(R10), BX
	IMULQ DX, BX
	LEAQ (R8)(BX*4), BX        // BX = row D
	CMPQ R11, $8
	JLT  sqrready
	MOVLQSX 16(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 20(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 24(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
	MOVLQSX 28(R10), CX
	IMULQ DX, CX
	PREFETCHT0 (R8)(CX*4)
sqrready:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, AX                // query cursor
	MOVQ DX, CX
	SHRQ $4, CX                // 16-element blocks
	JZ   sqr8
sqr16:
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VSUBPS (R9), Y8, Y10       // q - row, per row and half block
	VSUBPS 32(R9), Y9, Y11
	VSUBPS (R12), Y8, Y12
	VSUBPS 32(R12), Y9, Y13
	VSUBPS (R13), Y8, Y14
	VSUBPS 32(R13), Y9, Y15
	VFMADD231PS Y10, Y10, Y0   // acc += d*d
	VFMADD231PS Y11, Y11, Y1
	VFMADD231PS Y12, Y12, Y2
	VFMADD231PS Y13, Y13, Y3
	VFMADD231PS Y14, Y14, Y4
	VFMADD231PS Y15, Y15, Y5
	VSUBPS (BX), Y8, Y10
	VSUBPS 32(BX), Y9, Y11
	VFMADD231PS Y10, Y10, Y6
	VFMADD231PS Y11, Y11, Y7
	ADDQ $64, AX
	ADDQ $64, R9
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, BX
	DECQ CX
	JNZ  sqr16
sqr8:
	TESTQ $8, DX
	JZ    sqrreduce
	VMOVUPS (AX), Y8
	VSUBPS (R9), Y8, Y10
	VSUBPS (R12), Y8, Y11
	VSUBPS (R13), Y8, Y12
	VSUBPS (BX), Y8, Y13
	VFMADD231PS Y10, Y10, Y0
	VFMADD231PS Y11, Y11, Y2
	VFMADD231PS Y12, Y12, Y4
	VFMADD231PS Y13, Y13, Y6
	ADDQ $32, AX
	ADDQ $32, R9
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, BX
sqrreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VEXTRACTF128 $1, Y4, X5
	VEXTRACTF128 $1, Y6, X7
	VADDPS X1, X0, X0          // 4 lanes per row
	VADDPS X3, X2, X2
	VADDPS X5, X4, X4
	VADDPS X7, X6, X6
	VSHUFPS $0xb1, X0, X0, X1  // [1 0 3 2]
	VSHUFPS $0xb1, X2, X2, X3
	VSHUFPS $0xb1, X4, X4, X5
	VSHUFPS $0xb1, X6, X6, X7
	VADDPS X1, X0, X0
	VADDPS X3, X2, X2
	VADDPS X5, X4, X4
	VADDPS X7, X6, X6
	VSHUFPS $0x4e, X0, X0, X1  // [2 3 0 1]
	VSHUFPS $0x4e, X2, X2, X3
	VSHUFPS $0x4e, X4, X4, X5
	VSHUFPS $0x4e, X6, X6, X7
	VADDSS X1, X0, X0          // lane 0 = row total
	VADDSS X3, X2, X2
	VADDSS X5, X4, X4
	VADDSS X7, X6, X6
	MOVQ DX, CX
	ANDQ $7, CX
	JZ   sqrstore
sqrtail:
	VMOVSS (AX), X8
	VSUBSS (R9), X8, X9
	VSUBSS (R12), X8, X10
	VSUBSS (R13), X8, X11
	VSUBSS (BX), X8, X12
	VFMADD231SS X9, X9, X0
	VFMADD231SS X10, X10, X2
	VFMADD231SS X11, X11, X4
	VFMADD231SS X12, X12, X6
	ADDQ $4, AX
	ADDQ $4, R9
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ $4, BX
	DECQ CX
	JNZ  sqrtail
sqrstore:
	VMOVSS X0, (DI)
	CMPQ R11, $2
	JLT  sqrdone
	VMOVSS X2, 4(DI)
	CMPQ R11, $3
	JLT  sqrdone
	VMOVSS X4, 8(DI)
	CMPQ R11, $4
	JLT  sqrdone
	VMOVSS X6, 12(DI)
	ADDQ $16, DI
	ADDQ $16, R10
	SUBQ $4, R11
	JMP  sqrgroup
sqrdone:
	VZEROUPPER
	RET

// func argMinAVX2(x []float32) int
//
// Index of the first minimum, as the scalar loop best := x[0]; if x[i] <
// best { best, i } defines it: a NaN x[0] is index 0 (nothing compares below
// it), a later NaN is never taken, and −0 and +0 tie. Two passes. The first
// takes the minimum of the non-NaN elements with VMINPS, whose operand order
// (new < acc ? new : acc) leaves the accumulator in place when the new
// element is NaN; the accumulators start at x[0], known not to be NaN. The
// second returns the first index whose element compares equal to that
// minimum (EQ_OQ: false on NaN, true for ±0 against ∓0), which is the index
// the scalar loop stops its last update at. Contract (enforced by the public
// wrapper): len(x) ≥ 1.
TEXT ·argMinAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	VMOVSS (SI), X0
	VUCOMISS X0, X0
	JPS  amdone                // x[0] is NaN: nothing compares below it
	VBROADCASTSS X0, Y0        // four 8-lane minima, all starting at x[0]
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	MOVQ SI, DI
	MOVQ CX, BX
	SHRQ $5, BX                // 32-element blocks
	JZ   amfold
ammin32:
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VMINPS Y0, Y4, Y0          // Y0 = Y4 < Y0 ? Y4 : Y0
	VMINPS Y1, Y5, Y1
	VMINPS Y2, Y6, Y2
	VMINPS Y3, Y7, Y3
	ADDQ $128, DI
	DECQ BX
	JNZ  ammin32
amfold:
	VMINPS Y1, Y0, Y0
	VMINPS Y3, Y2, Y2
	VMINPS Y2, Y0, Y0
	MOVQ CX, BX
	ANDQ $31, BX
	SHRQ $3, BX                // 8-element blocks left
	JZ   amreduce
ammin8:
	VMOVUPS (DI), Y4
	VMINPS Y0, Y4, Y0
	ADDQ $32, DI
	DECQ BX
	JNZ  ammin8
amreduce:
	VEXTRACTF128 $1, Y0, X1
	VMINPS X1, X0, X0          // 4 lanes
	VSHUFPS $0xb1, X0, X0, X1  // [1 0 3 2]
	VMINPS X1, X0, X0
	VSHUFPS $0x4e, X0, X0, X1  // [2 3 0 1]
	VMINPS X1, X0, X0          // lane 0 = minimum of the blocks
	MOVQ CX, BX
	ANDQ $7, BX
	JZ   amfind
ammintail:
	VMOVSS (DI), X4
	VMINSS X0, X4, X0          // lane 0 = x[i] < min ? x[i] : min
	ADDQ $4, DI
	DECQ BX
	JNZ  ammintail
amfind:
	VBROADCASTSS X0, Y0        // the minimum in every lane
	MOVQ SI, DI
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   amfindtail
amfind8:
	VCMPPS $0, (DI), Y0, Y1    // EQ_OQ
	VMOVMSKPS Y1, DX
	TESTL DX, DX
	JNZ  amfound
	ADDQ $32, DI
	ADDQ $8, AX
	DECQ BX
	JNZ  amfind8
amfindtail:
	MOVQ CX, BX
	ANDQ $7, BX
	JZ   amnone
amtail:
	VUCOMISS (DI), X0
	JNE  amnext
	JPC  amdone                // equal and ordered
amnext:
	ADDQ $4, DI
	INCQ AX
	DECQ BX
	JNZ  amtail
amnone:
	XORQ AX, AX                // unreachable: the minimum is an element
	JMP  amdone
amfound:
	BSFL DX, DX
	ADDQ DX, AX
amdone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// Package cpuid is the one probe behind every vector kernel in this
// module: the grid's filters (internal/grid/filter_amd64.s), the grid's
// build-time label and span mapping (internal/grid/label_amd64.s) and the
// digest fold (internal/core/fold_amd64.s) take their AVX-512 tier iff
// AVX512 is true, and their Go loops otherwise.
package cpuid

//go:build linux && amd64

package core

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestFoldIDsStopsAtLen puts every run of 0 to 80 IDs flush against a
// PROT_NONE page: a block load that read one lane past len(ids) would
// fault, so the masked tail is shown to read nothing it was not given.
func TestFoldIDsStopsAtLen(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), page/4)
	for i := range all {
		all[i] = uint32(i) * 2654435761
	}
	for n := 0; n <= 80; n++ {
		checkFoldTiers(t, uint64(n), uint32(n)<<24|7, all[len(all)-n:])
	}
}

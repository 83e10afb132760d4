//go:build unix

package trace

import "syscall"

// allocSlab maps n anonymous bytes outside the Go heap, so a full arena
// does not raise the collector's heap goal. It falls back to the heap
// if the mapping fails.
func allocSlab(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}

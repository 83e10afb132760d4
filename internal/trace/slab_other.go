//go:build !unix

package trace

// allocSlab allocates the arena's slab on the heap where anonymous
// mappings are not available.
func allocSlab(n int) []byte { return make([]byte, n) }

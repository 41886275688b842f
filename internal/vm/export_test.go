package vm

// QuickSrc exposes a chunk's deopt source map to the external test package.
func QuickSrc(c *Chunk) []int32 { return c.quickSrc }

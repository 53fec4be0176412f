//go:build !race

package rest

// The allocation budget of TestCopyFromFileAllocBudget, as measured when
// it was pinned (go1.24, linux/amd64).
const copyAllocBudget = 0

//go:build !race

package script

// The allocation budget of TestRunAllocBudget, as measured when it was
// pinned (go1.24, linux/amd64).
const runAllocBudget = 3

//go:build race

package rest

// The allocation budget of TestCopyFromFileAllocBudget under the race
// detector, which makes sync.Pool drop a random share of what is put back.
// It is the largest count seen in 30 runs when it was pinned (go1.24,
// linux/amd64), plus a margin of one allocation for that randomness.
const copyAllocBudget = 1

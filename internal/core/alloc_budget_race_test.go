//go:build race

package core

// The allocation budget of TestJobPageDecodeAllocBudget under the race
// detector.  It is the largest count seen in 30 runs when it was pinned
// (go1.24, linux/amd64), plus a margin of one allocation per page.
const jobPageDecodeAllocBudget = 10.15

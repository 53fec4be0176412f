package container

import "mathcloud/internal/core"

// SetLandHook sets the function land calls between building a job's
// terminal image and journaling it; nil removes it.  Set it only while no
// job is landing.
func SetLandHook(f func(*core.Job)) { landHook = f }

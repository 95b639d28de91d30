package core

// CheckpointEpochOf reports pe's last completed checkpoint epoch (0 = none)
// to the tests outside the package.
func CheckpointEpochOf(pe *PE) uint64 { return pe.ckptEpoch }

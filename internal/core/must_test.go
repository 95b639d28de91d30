package core

// Shorthands over the raw-address error forms for the tests that place words
// by address (homes, blocks, allocation boundaries). Each panics with the
// typed error on failure, which runPE delivers into Result.Errs.

func mustRead(pe *PE, addr uint64) int64 {
	v, err := pe.GMReadErr(addr)
	must(err)
	return v
}

func mustWrite(pe *PE, addr uint64, v int64) { must(pe.GMWriteErr(addr, v)) }

func mustFetchAdd(pe *PE, addr uint64, delta int64) int64 {
	old, err := pe.FetchAddErr(addr, delta)
	must(err)
	return old
}

func mustReadBlock(pe *PE, addr uint64, n int) []int64 {
	out, err := pe.GMReadBlockErr(addr, n)
	must(err)
	return out
}

func mustWriteBlock(pe *PE, addr uint64, words []int64) { must(pe.GMWriteBlockErr(addr, words)) }

func mustGather(pe *PE, addrs []uint64) []int64 {
	out, err := pe.GMGatherErr(addrs)
	must(err)
	return out
}

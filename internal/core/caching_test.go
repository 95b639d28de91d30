package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/gmem"
)

func cachingCfg(n int) Config {
	cfg := simCfg(n)
	cfg.GMDefaultMode = gmem.ModeCached
	return cfg
}

func TestCachingBasicCoherence(t *testing.T) {
	res, err := Run(cachingCfg(4), func(pe *PE) error {
		base := pe.Alloc(256)
		for i := pe.ID(); i < 256; i += pe.N() {
			mustWrite(pe, base+uint64(i), int64(i))
		}
		pe.Barrier()
		for i := 0; i < 256; i++ {
			if v := mustRead(pe, base+uint64(i)); v != int64(i) {
				return fmt.Errorf("PE %d: word %d = %d", pe.ID(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCachingInvalidatesStaleCopies(t *testing.T) {
	res, err := Run(cachingCfg(2), func(pe *PE) error {
		x := pe.Alloc(1)
		if pe.ID() == 0 {
			mustWrite(pe, x, 1)
		}
		pe.Barrier()
		// Both PEs read (and PE!=home caches) the value.
		if v := mustRead(pe, x); v != 1 {
			return fmt.Errorf("PE %d: initial read %d", pe.ID(), v)
		}
		pe.Barrier()
		// PE 1 overwrites; PE 0's cached copy (if any) must be invalidated.
		if pe.ID() == 1 {
			mustWrite(pe, x, 2)
		}
		pe.Barrier()
		if v := mustRead(pe, x); v != 2 {
			return fmt.Errorf("PE %d: stale read %d after remote write", pe.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCachingRepeatReadsHitCache(t *testing.T) {
	res, err := Run(cachingCfg(2), func(pe *PE) error {
		x := pe.Alloc(64)
		pe.Barrier()
		if pe.ID() == 1 {
			// Address homed at kernel 0: first read misses, rest hit.
			remote := x // block 0 words live at kernel 0 after the scratch region? compute a remote address instead:
			for remote = x; pe.Space().HomeOf(remote) == pe.ID(); remote++ {
			}
			for i := 0; i < 10; i++ {
				mustRead(pe, remote)
			}
			hits, misses, _ := pe.k.cache.Stats()
			if misses == 0 || hits < 9 {
				return fmt.Errorf("cache not effective: hits=%d misses=%d", hits, misses)
			}
		}
		pe.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCachingCutsRemoteTrafficOnReadHeavyWorkload(t *testing.T) {
	traffic := func(caching bool) uint64 {
		cfg := simCfg(4)
		if caching {
			cfg.GMDefaultMode = gmem.ModeCached
		}
		res, err := Run(cfg, func(pe *PE) error {
			base := pe.Alloc(64)
			if pe.ID() == 0 {
				for i := 0; i < 64; i++ {
					mustWrite(pe, base+uint64(i), int64(i))
				}
			}
			pe.Barrier()
			// Everyone re-reads the same shared table many times.
			for rep := 0; rep < 20; rep++ {
				for i := 0; i < 64; i++ {
					if v := mustRead(pe, base+uint64(i)); v != int64(i) {
						return fmt.Errorf("bad value %d", v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return res.Total.MsgsSent
	}
	with, without := traffic(true), traffic(false)
	if with >= without/2 {
		t.Fatalf("caching did not cut read traffic: %d with vs %d without", with, without)
	}
}

func TestCachingFetchAddInvalidates(t *testing.T) {
	res, err := Run(cachingCfg(3), func(pe *PE) error {
		x := pe.Alloc(1)
		mustRead(pe, x) // everyone caches the block
		pe.Barrier()
		if pe.ID() == 2 {
			mustFetchAdd(pe, x, 5)
		}
		pe.Barrier()
		if v := mustRead(pe, x); v != 5 {
			return fmt.Errorf("PE %d: read %d after fetch-add, want 5", pe.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCachingCASInvalidates(t *testing.T) {
	res, err := Run(cachingCfg(3), func(pe *PE) error {
		x := pe.Alloc(1)
		mustRead(pe, x)
		pe.Barrier()
		if pe.ID() == 1 {
			if _, ok, err := pe.CASErr(x, 0, 9); err != nil || !ok {
				return fmt.Errorf("CAS failed")
			}
		}
		pe.Barrier()
		if v := mustRead(pe, x); v != 9 {
			return fmt.Errorf("PE %d: read %d after CAS, want 9", pe.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

// Randomised coherence check: a deterministic pseudo-random schedule of
// writes (each address owned by one writer per phase) must always be read
// back coherently after a barrier, with caching on.
func TestCachingRandomisedCoherence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := cachingCfg(4)
			cfg.Seed = seed
			res, err := Run(cfg, func(pe *PE) error {
				const words = 96
				base := pe.Alloc(words)
				rng := seed
				next := func() uint64 {
					rng = rng*6364136223846793005 + 1442695040888963407
					return rng >> 33
				}
				for phase := 0; phase < 4; phase++ {
					// Deterministic owner per (phase, word): same on all PEs.
					for w := 0; w < words; w++ {
						owner := int(next() % uint64(pe.N()))
						if owner == pe.ID() {
							mustWrite(pe, base+uint64(w), int64(phase*1000+w))
						}
					}
					pe.Barrier()
					for w := 0; w < words; w++ {
						if v := mustRead(pe, base+uint64(w)); v != int64(phase*1000+w) {
							return fmt.Errorf("phase %d word %d: %d", phase, w, v)
						}
					}
					pe.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCachedBlockSharedWithStrongWord: a cached word and a strong word share
// a block. When the home serves the strong write as a message it empties the
// block's copyset without invalidating the writer, so the writer must drop
// its own copy whatever the written word's mode — or the next write to the
// cached word finds nobody to invalidate and the writer reads its stale copy.
func TestCachedBlockSharedWithStrongWord(t *testing.T) {
	cfg := simCfg(3)
	cfg.DirectReads = -1 // the home serves every write
	res, err := Run(cfg, func(pe *PE) error {
		y := pe.AllocBlocks(1)
		for pe.HomeOf(y) != 1 {
			y = pe.AllocBlocks(1)
		}
		x := pe.AllocMode(1, gmem.ModeCached) // the word after y, in y's block
		pe.Barrier()
		if pe.ID() == 0 {
			mustRead(pe, x)     // joins the block's copyset
			mustWrite(pe, y, 1) // the home takes the copyset, sparing the writer
		}
		pe.Barrier()
		if pe.ID() == 2 {
			mustWrite(pe, x, 5)
		}
		pe.Barrier()
		if v := mustRead(pe, x); v != 5 {
			return fmt.Errorf("PE %d read %d from the cached word, want 5", pe.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCachedModeNeedsStaticHomes pins the refusals that keep cached copies
// and moving homes apart: a cached default mode with latent PEs is rejected
// at configuration, a cached allocation on a directory that is not static
// panics with the typed error, and a PE holding a cached allocation may not
// join, leave or migrate.
func TestCachedModeNeedsStaticHomes(t *testing.T) {
	_, err := (&Config{NumPE: 3, Transport: TransportInproc, LatentPEs: 1, GMDefaultMode: gmem.ModeCached}).withDefaults()
	if !errors.Is(err, errCachedElastic) {
		t.Errorf("LatentPEs with a cached default mode: got %v, want errCachedElastic", err)
	}
	res, err := Run(Config{NumPE: 3, Transport: TransportInproc, LatentPEs: 1}, func(pe *PE) error {
		pe.AllocMode(8, gmem.ModeCached)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, perr := range res.Errs {
		if !errors.Is(perr, errCachedElastic) {
			t.Errorf("PE %d: cached allocation beside a latent PE: got %v, want errCachedElastic", i, perr)
		}
	}
	res, err = Run(Config{NumPE: 3, Transport: TransportInproc}, func(pe *PE) error {
		a := pe.AllocMode(8, gmem.ModeCached)
		for what, err := range map[string]error{
			"join": pe.Join(), "leave": pe.Leave(), "migrate": pe.MigrateRange(a, 1, 0),
		} {
			if !errors.Is(err, errCachedElastic) {
				return fmt.Errorf("%s with a cached allocation: got %v, want errCachedElastic", what, err)
			}
		}
		return nil
	})
	if err != nil || res.FirstErr() != nil {
		t.Fatal(err, res.FirstErr())
	}
}

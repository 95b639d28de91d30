package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/gmem"
)

// TestPinnedAccessFollowsMigration: PE 0 reads and writes a word homed at PE 1
// in place, which pins the word's block in PE 0's resolution table; then the
// block's home, storage, namespace binding or liveness changes under the pin,
// and PE 0's next access must follow:
//   - migrate: MigrateRange moves the block to PE 2, and the next read returns
//     the last value written and is served at PE 2. Then, with PE 0 idle, the
//     block goes back to PE 1, where the directory names the pinned kernel
//     again but the storage is new, and PE 2 wrote a value meanwhile: only the
//     pin's generation tells the old storage from the new;
//   - drop: CloseJob drops the job's region, and the next read returns zero,
//     not the dropped value;
//   - namespace: PE 1's registry rebinds PE 0 to a region without the word,
//     and the next read and write are refused with *NamespaceError;
//   - dead: kernel 0 declares kernel 1 dead, and the next read fails with
//     *PeerDownError.
func TestPinnedAccessFollowsMigration(t *testing.T) {
	const bw = 32
	// job's region is blocks 8..11; the word is in block 10, homed at kernel 1.
	job := JobGroup{Name: "pinned", Members: []int{0}, TagBase: JobSlotBase(0),
		Region: gmem.Region{Base: 8 * bw, Limit: 12 * bw}}
	// pinAt has PE 0 write v to addr, homed at home, and read it back in
	// place, and fails unless the block is then pinned at home.
	pinAt := func(pe *PE, addr uint64, v int64, home int) error {
		mustWrite(pe, addr, v)
		if got := mustRead(pe, addr); got != v {
			return fmt.Errorf("read %d back, wrote %d", got, v)
		}
		if p := pe.pinned(pe.Space().BlockOf(addr)); p == nil || p.Home() != home {
			return fmt.Errorf("block of %d not pinned at kernel %d: %+v", addr, home, p)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		prog func(pe *PE, addr uint64) error
	}{
		{"migrate", func(pe *PE, addr uint64) error {
			if pe.ID() == 0 {
				if err := pinAt(pe, addr, 7, 1); err != nil {
					return err
				}
				mustWrite(pe, addr, 8)
				must(pe.MigrateRange(addr, 1, 2))
				before := pathCounters(pe)
				if v := mustRead(pe, addr); v != 8 {
					return fmt.Errorf("read %d after the move to PE 2, last wrote 8", v)
				}
				if d := pathCounters(pe).sub(before); d.direct != 1 || d.msgs != 0 {
					return fmt.Errorf("read after the move took %+v, want one read in place", d)
				}
				if p := pe.pinned(pe.Space().BlockOf(addr)); p == nil || p.Home() != 2 {
					return fmt.Errorf("the read after the move was not served at PE 2: %+v", p)
				}
				if err := pinAt(pe, addr, 9, 2); err != nil {
					return err
				}
				must(pe.MigrateRange(addr, 1, 1)) // the slot now pins PE 2's block
				if err := pinAt(pe, addr, 10, 1); err != nil {
					return err
				}
			}
			pe.Barrier() // pinned at PE 1
			if pe.ID() == 2 {
				must(pe.MigrateRange(addr, 1, 2))
				mustWrite(pe, addr, 11)
				must(pe.MigrateRange(addr, 1, 1))
			}
			pe.Barrier() // back at PE 1 in new storage
			if pe.ID() == 0 {
				if v := mustRead(pe, addr); v != 11 {
					return fmt.Errorf("read %d through a pin of storage the block left, want 11", v)
				}
			}
			return nil
		}},
		{"drop", func(pe *PE, addr uint64) error {
			if pe.ID() != 0 {
				return nil
			}
			must(pe.OpenJob(job))
			must(pe.BeginJob(job))
			err := pinAt(pe, addr, 7, 1)
			pe.EndJob()
			if err != nil {
				return err
			}
			if freed, err := pe.CloseJob(job); err != nil || freed != 1 {
				return fmt.Errorf("CloseJob freed %d blocks, %v; want 1", freed, err)
			}
			if v := mustRead(pe, addr); v != 0 {
				return fmt.Errorf("read %d from the dropped region, want 0", v)
			}
			return nil
		}},
		{"namespace", func(pe *PE, addr uint64) error {
			if pe.ID() == 0 {
				if err := pinAt(pe, addr, 7, 1); err != nil {
					return err
				}
			}
			pe.Barrier()
			if pe.ID() == 1 {
				pe.k.ns.Bind(0, gmem.Region{Base: addr + bw, Limit: addr + 2*bw})
			}
			pe.Barrier() // PE 0 bound at kernel 1 only
			if pe.ID() == 0 {
				var nsErr *NamespaceError
				if v, err := pe.GMReadErr(addr); !errors.As(err, &nsErr) {
					return fmt.Errorf("read outside the rebound namespace: %d, %v; want *NamespaceError", v, err)
				}
				if err := pe.GMWriteErr(addr, 8); !errors.As(err, &nsErr) {
					return fmt.Errorf("write outside the rebound namespace: %v, want *NamespaceError", err)
				}
			}
			pe.Barrier()
			if pe.ID() == 1 {
				if v := pe.k.seg.ReadWord(addr); v != 7 {
					return fmt.Errorf("the refused write landed: word is %d, want 7", v)
				}
				pe.k.ns.Unbind(0)
			}
			return nil
		}},
		{"dead", func(pe *PE, addr uint64) error {
			if pe.ID() != 0 {
				return nil
			}
			if err := pinAt(pe, addr, 7, 1); err != nil {
				return err
			}
			pe.k.peerDown(1)
			var down *PeerDownError
			if v, err := pe.GMReadErr(addr); !errors.As(err, &down) || down.Peer != 1 {
				return fmt.Errorf("read at the dead home: %d, %v; want *PeerDownError naming 1", v, err)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{NumPE: 3, Transport: TransportInproc, GMBlockWords: bw, DirectReads: 1}
			runWithin(t, 20*time.Second, cfg, func(pe *PE) error {
				return c.prog(pe, job.Region.Base+2*bw+3) // a word of block 10
			})
		})
	}
}

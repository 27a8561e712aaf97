package mpi_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
)

// A two-rank world exchanging a derived-datatype message, with virtual-time
// measurement. The simulation is deterministic, so the printed latency is
// reproducible bit for bit.
func ExampleWorld() {
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 32 << 20
	cfg.Core.PoolSize = 2 << 20
	cfg.Core.Scheme = core.SchemeMultiW

	world, _ := mpi.NewWorld(cfg)
	vec := datatype.Must(datatype.TypeVector(64, 16, 64, datatype.Int32))

	err := world.Run(func(p *mpi.Proc) error {
		buf := p.Mem().MustAlloc(vec.TrueExtent())
		if p.Rank() == 0 {
			return p.Send(buf, 1, vec, 1, 0)
		}
		st, err := p.Recv(buf, 1, vec, 0, 0)
		if err != nil {
			return err
		}
		fmt.Printf("received %d bytes from rank %d\n", st.Bytes, st.Source)
		return nil
	})
	fmt.Println("err:", err)
	// Output:
	// received 4096 bytes from rank 0
	// err: <nil>
}

// Splitting the world into row communicators and reducing within each.
func ExampleComm_Split() {
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 4
	cfg.MemBytes = 32 << 20
	cfg.Core.PoolSize = 2 << 20

	world, _ := mpi.NewWorld(cfg)
	sums := make([]int32, 4)
	err := world.Run(func(p *mpi.Proc) error {
		row, err := p.World().Split(p.Rank()/2, p.Rank())
		if err != nil {
			return err
		}
		sbuf := p.Mem().MustAlloc(4)
		p.Mem().Bytes(sbuf, 4)[0] = byte(p.Rank() + 1)
		rbuf := p.Mem().MustAlloc(4)
		if err := row.Allreduce(sbuf, rbuf, 1, mpi.OpSumInt32); err != nil {
			return err
		}
		sums[p.Rank()] = int32(p.Mem().Bytes(rbuf, 4)[0])
		return nil
	})
	fmt.Println("err:", err)
	fmt.Println("row sums:", sums)
	// Output:
	// err: <nil>
	// row sums: [3 3 7 7]
}

// One-sided communication: rank 0 puts a block into rank 1's window.
func ExampleWin() {
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.MemBytes = 32 << 20
	cfg.Core.PoolSize = 2 << 20

	world, _ := mpi.NewWorld(cfg)
	ct := datatype.Must(datatype.TypeContiguous(1024, datatype.Byte))
	err := world.Run(func(p *mpi.Proc) error {
		winBuf := p.Mem().MustAlloc(1024)
		win, err := p.World().WinCreate(winBuf, 1024)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			src := p.Mem().MustAlloc(1024)
			p.Mem().Bytes(src, 1024)[42] = 0x7F
			if err := win.Put(src, 1, ct, 1, 0, 1, ct); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if p.Rank() == 1 {
			fmt.Println("window byte 42:", p.Mem().Bytes(winBuf, 1024)[42])
		}
		return win.Free()
	})
	fmt.Println("err:", err)
	// Output:
	// window byte 42: 127
	// err: <nil>
}

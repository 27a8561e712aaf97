// Quickstart: two simulated ranks exchange a column-slice of a matrix using
// an MPI derived datatype over the simulated InfiniBand fabric.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mem"
	"repro/internal/mpi"
)

func main() {
	// A cluster of two ranks with the BC-SPUP transfer scheme.
	cfg := mpi.DefaultConfig()
	cfg.Ranks = 2
	cfg.Core.Scheme = core.SchemeBCSPUP

	world, err := mpi.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Four columns of a 128x4096 int32 matrix: the paper's motivating type.
	const (
		rows, cols, pick = 128, 4096, 4
	)
	colType := datatype.Must(datatype.TypeVector(rows, pick, cols, datatype.Int32))
	fmt.Printf("datatype: %v (%d bytes of data, %d blocks)\n",
		colType, colType.Size(), colType.Blocks())

	err = world.Run(func(p *mpi.Proc) error {
		matrix := p.Mem().MustAlloc(rows * cols * 4)
		if p.Rank() == 0 {
			// Fill the picked columns with recognizable values.
			for r := 0; r < rows; r++ {
				row := p.Mem().Bytes(matrix+mem.Addr(r*cols*4), int64(pick)*4)
				for c := 0; c < pick; c++ {
					v := uint32(r*10 + c)
					row[c*4+0] = byte(v)
					row[c*4+1] = byte(v >> 8)
					row[c*4+2] = byte(v >> 16)
					row[c*4+3] = byte(v >> 24)
				}
			}
			start := p.Now()
			if err := p.Send(matrix, 1, colType, 1, 0); err != nil {
				return err
			}
			fmt.Printf("rank 0: sent %d noncontiguous bytes in %v (virtual time)\n",
				colType.Size(), p.Now().Sub(start))
			return nil
		}
		st, err := p.Recv(matrix, 1, colType, 0, 0)
		if err != nil {
			return err
		}
		// Spot-check a value: row 3, column 2 -> 32.
		got := p.Mem().Bytes(matrix+mem.Addr(3*cols*4+2*4), 4)
		v := uint32(got[0]) | uint32(got[1])<<8 | uint32(got[2])<<16 | uint32(got[3])<<24
		fmt.Printf("rank 1: received %d bytes from rank %d; matrix[3][2] = %d (want 32)\n",
			st.Bytes, st.Source, v)
		if v != 32 {
			return fmt.Errorf("verification failed: got %d", v)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}

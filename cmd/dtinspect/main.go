// dtinspect builds a derived datatype from a small command-line spec and
// prints its layout: size/extent semantics, contiguous-run statistics, the
// adaptive tuner's layout signature, the flattened block list, and the
// wire-encoding size used by the Multi-W layout exchange.
//
// Specs:
//
//	vector:COUNT,BLOCKLEN,STRIDE[,BASE]     MPI_Type_vector
//	contig:COUNT[,BASE]                     MPI_Type_contiguous
//	indexed:LEN@DISPL,LEN@DISPL,...[;BASE]  MPI_Type_indexed
//	paperstruct:LASTINTS                    the paper's Figure 10 struct
//
// BASE is one of int32 (default), float64, byte.
//
//	go run ./cmd/dtinspect 'vector:128,2,4096'
//	go run ./cmd/dtinspect -count 4 -blocks 8 'paperstruct:8192'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/datatype"
	"repro/internal/exper"
	"repro/internal/tuner"
)

func main() {
	count := flag.Int("count", 1, "datatype count (instances in the message)")
	maxBlocks := flag.Int("blocks", 16, "flattened blocks to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dtinspect [-count N] [-blocks N] SPEC")
		os.Exit(2)
	}
	dt, err := parse(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("type:        %v\n", dt)
	fmt.Printf("size:        %d bytes of data per instance\n", dt.Size())
	fmt.Printf("extent:      %d (lb %d, ub %d)\n", dt.Extent(), dt.LB(), dt.UB())
	fmt.Printf("true extent: %d (true lb %d)\n", dt.TrueExtent(), dt.TrueLB())
	fmt.Printf("contiguous:  %v   density: %.3f\n", dt.Contig(), dt.Density())

	s := datatype.LayoutStats(dt, *count, 1<<20)
	fmt.Printf("message:     count=%d -> %d bytes in %d runs (min %d / median %d / avg %.1f / max %d)\n",
		*count, s.Bytes, s.Runs, s.MinRun, s.MedianRun, s.AvgRun, s.MaxRun)

	sig := tuner.SignatureOf(s.Runs, int64(s.AvgRun), s.Bytes)
	fmt.Printf("tuner sig:   %s\n", sig)

	// The program of a count is the type's unit repeated, one extent apart.
	fmt.Printf("compiled:    %s", dt.Unit())
	if *count != 1 {
		fmt.Printf(" × %d @ %d", *count, dt.Extent())
	}
	fmt.Println()

	enc := datatype.Encode(dt)
	fmt.Printf("wire layout: %d bytes encoded\n", len(enc))
	fmt.Printf("dataloop tree:\n%s", indentLines(dt.Tree()))

	blocks, trunc := datatype.Flatten(dt, *count, *maxBlocks)
	fmt.Printf("flattened runs%s:\n", map[bool]string{true: " (truncated)", false: ""}[trunc])
	for _, b := range blocks {
		fmt.Printf("  [%8d, +%d)\n", b.Off, b.Len)
	}
}

func parse(spec string) (*datatype.Type, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("spec %q: want KIND:ARGS", spec)
	}
	switch kind {
	case "vector":
		args, base, err := intArgs(rest, 3)
		if err != nil {
			return nil, err
		}
		return datatype.TypeVector(args[0], args[1], args[2], base)
	case "contig":
		args, base, err := intArgs(rest, 1)
		if err != nil {
			return nil, err
		}
		return datatype.TypeContiguous(args[0], base)
	case "indexed":
		body, baseName, _ := strings.Cut(rest, ";")
		base, err := baseType(baseName)
		if err != nil {
			return nil, err
		}
		var lens, displs []int
		for _, part := range strings.Split(body, ",") {
			l, d, ok := strings.Cut(part, "@")
			if !ok {
				return nil, fmt.Errorf("indexed part %q: want LEN@DISPL", part)
			}
			li, err1 := strconv.Atoi(l)
			di, err2 := strconv.Atoi(d)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("indexed part %q: bad numbers", part)
			}
			lens = append(lens, li)
			displs = append(displs, di)
		}
		return datatype.TypeIndexed(lens, displs, base)
	case "paperstruct":
		last, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("paperstruct: %w", err)
		}
		return exper.StructType(last), nil
	default:
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
}

func intArgs(rest string, n int) ([]int, *datatype.Type, error) {
	parts := strings.Split(rest, ",")
	if len(parts) < n || len(parts) > n+1 {
		return nil, nil, fmt.Errorf("want %d integers and an optional base type, got %q", n, rest)
	}
	args := make([]int, n)
	for i := 0; i < n; i++ {
		v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return nil, nil, fmt.Errorf("bad integer %q", parts[i])
		}
		args[i] = v
	}
	baseName := ""
	if len(parts) == n+1 {
		baseName = parts[n]
	}
	base, err := baseType(baseName)
	return args, base, err
}

func baseType(name string) (*datatype.Type, error) {
	switch strings.TrimSpace(name) {
	case "", "int32", "int":
		return datatype.Int32, nil
	case "float64", "double":
		return datatype.Float64, nil
	case "byte", "char":
		return datatype.Byte, nil
	default:
		return nil, fmt.Errorf("unknown base type %q", name)
	}
}

func indentLines(s string) string {
	out := ""
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out += "  " + line + "\n"
	}
	return out
}

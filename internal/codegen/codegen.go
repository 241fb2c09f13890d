// Package codegen emits runnable Go programs from optimized topologies:
// the analog of SpinStreams' final code-generation phase, which turns the
// abstract topology into code for the target SPS (Section 4.2; the paper
// targets Akka, this repo targets its own goroutine runtime).
//
// A generated program is package main importing only the public
// spinstreams package: one string constant holds the deployment document
// (the topology with its keys inlined, fused meta-operators and replica
// degrees), and main hands it to spinstreams.RunCommand. It therefore
// takes run's flags, binds the same catalog operators and deploys exactly
// what spinstreams run -in deploys for that document.
package codegen

import (
	"fmt"
	"io"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/xmlio"
)

// Generate writes the program deploying t with the given replication
// degrees (nil = all ones) to w.
func Generate(w io.Writer, t *core.Topology, replicas []int) error {
	if t == nil {
		return fmt.Errorf("codegen: nil topology")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	var doc strings.Builder
	if err := xmlio.WriteOptimized(&doc, "deployment", t, replicas); err != nil {
		return fmt.Errorf("codegen: %w", err)
	}
	_, err := fmt.Fprintf(w, program, t.Len(), t.NumEdges(), doc.String())
	return err
}

const program = `// Code generated by spinstreams generate. DO NOT EDIT.

// This program deploys an optimized SpinStreams topology (%d operators,
// %d streams) on the goroutine runtime and prints measured vs predicted
// throughput. It takes the flags of spinstreams run, without -in.
package main

import (
	"fmt"
	"os"

	"spinstreams"
)

// deployment is the topology document this program runs, replica
// degrees included.
const deployment = %q

func main() {
	if err := spinstreams.RunCommand(os.Args[1:], deployment, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
`

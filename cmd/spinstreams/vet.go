package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spinstreams/internal/lint"
	"spinstreams/internal/xmlio"
)

// cmdVet is the static verification front-end: it lints a topology
// document as the deployment it declares (structure, replica degrees,
// cost model, optional fusion candidate and rewrite trace) and renders
// the report as text, JSON, or SARIF. The exit status is non-zero when
// any error-severity diagnostic fires, so the command slots directly into
// CI.
func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	in := fs.String("in", "", "input topology XML")
	members := fs.String("members", "", "comma-separated fusion candidate to verify against the Section 3.3 preconditions")
	budget := fs.Int("replica-budget", 0, "replica budget the document's deployment must fit (0 = unbounded)")
	allowCycles := fs.Bool("allow-cycles", false, "accept feedback edges and analyze them with the fixed-point solver")
	tracePath := fs.String("trace", "", "rewrite trace JSON to replay against the topology")
	mailboxSize := fs.Int("mailbox-size", 0, "bounded mailbox capacity assumed by the back-pressure checks (0 = runtime default)")
	burstFactor := fs.Float64("burst-factor", 0, "arrival-rate multiplier for the inbox burst-capacity check (0 = skip)")
	burstSeconds := fs.Float64("burst-seconds", 0, "burst duration every inbox must absorb without filling (0 = skip)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	out := fs.String("o", "", "write the report here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	cfg := lint.Config{
		File: *in,
		KeyLoader: func(ref string) ([]float64, error) {
			return xmlio.LoadKeyFile(filepath.Join(filepath.Dir(*in), ref))
		},
		ReplicaBudget:   *budget,
		AllowCycles:     *allowCycles,
		MailboxCapacity: *mailboxSize,
		BurstFactor:     *burstFactor,
		BurstSeconds:    *burstSeconds,
	}
	if *members != "" {
		for _, m := range strings.Split(*members, ",") {
			cfg.FuseMembers = append(cfg.FuseMembers, strings.TrimSpace(m))
		}
	}
	if *tracePath != "" {
		trace, err := os.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		cfg.Trace = trace
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	doc, pos, err := xmlio.DecodeDocument(f)
	f.Close()
	if err != nil {
		return err
	}
	rep := lint.RunDocument(doc, pos, cfg)

	var rendered []byte
	switch *format {
	case "text":
		var b bytes.Buffer
		err = rep.Text(&b)
		rendered = b.Bytes()
	case "json":
		rendered, err = rep.JSON()
		rendered = append(rendered, '\n')
	case "sarif":
		rendered, err = rep.SARIF()
		rendered = append(rendered, '\n')
	default:
		return fmt.Errorf("vet: unknown format %q (want text, json, or sarif)", *format)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, rendered, 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(rendered); err != nil {
		return err
	}

	if errs, warns, _ := rep.Counts(); errs > 0 {
		return fmt.Errorf("vet: %d error(s), %d warning(s)", errs, warns)
	}
	return nil
}

// Command scatter-node hosts scAtteR service workers on one machine: it
// reads a node deployment document (agent.NodeConfig documents its JSON;
// samples are under deploy/), trains the recognition model every node
// derives identically from the shared seed, starts the node with
// agent.StartNode, and closes it on SIGINT or SIGTERM.
//
//	scatter-node -config deploy/node-single.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"github.com/edge-mar/scatter/internal/agent"
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
)

func main() {
	configPath := flag.String("config", "", "path to the node deployment JSON (required)")
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "scatter-node: -config is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*configPath); err != nil {
		slog.Error("scatter-node", "err", err)
		os.Exit(1)
	}
}

func run(configPath string) error {
	data, err := os.ReadFile(configPath)
	if err != nil {
		return fmt.Errorf("read config: %w", err)
	}
	cfg, err := agent.ParseNodeConfig(data)
	if err != nil {
		return fmt.Errorf("parse config %s: %w", configPath, err)
	}
	// Every node derives the identical model from the shared seed — the
	// stand-in for distributing a trained model artifact.
	gen := trace.NewGenerator(trace.Config{W: cfg.AnalysisWidth, H: cfg.AnalysisHeight, Seed: cfg.TrainSeed})
	slog.Info("training recognition model", "seed", cfg.TrainSeed)
	model, err := core.Train(gen.ReferenceImages(), core.TrainConfig{Seed: cfg.TrainSeed})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	node, err := agent.StartNode(cfg, model)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("shutting down")
	return node.Close()
}

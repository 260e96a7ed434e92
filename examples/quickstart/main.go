// Quickstart: compose a sensing app with the Swing API, start a live
// master and two workers in this process (over loopback TCP), stream
// frames through the swarm and print the in-order results.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	swing "github.com/swingframework/swing"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The paper's face-recognition app: source → detect → recognize →
	// display, 6 kB frames at 24 FPS.
	app, err := swing.FaceRecognition()
	if err != nil {
		return err
	}

	// Master: hosts the source and the sink; results arrive in playback
	// order thanks to the reorder buffer.
	results := make(chan swing.LiveResult, 256)
	master, err := swing.StartMaster(swing.MasterConfig{
		App:        app,
		Policy:     swing.LRS,
		ListenAddr: "127.0.0.1:0",
		// A result is valid only during OnResult: keep a clone.
		OnResult: func(r swing.LiveResult) {
			r.Tuple = r.Tuple.Clone()
			results <- r
		},
	})
	if err != nil {
		return err
	}
	defer func() { _ = master.Close() }()
	fmt.Println("master listening on", master.Addr())

	// Two workers join the swarm; the second is artificially 4x slower,
	// so LRS will shift most frames to the fast one.
	for _, w := range []struct {
		id    string
		speed float64
	}{{"phone-fast", 1}, {"phone-slow", 4}} {
		worker, err := swing.StartWorker(swing.WorkerConfig{
			DeviceID:    w.id,
			MasterAddr:  master.Addr(),
			App:         app,
			SpeedFactor: w.speed,
		})
		if err != nil {
			return err
		}
		defer func() { _ = worker.Close() }()
	}
	// Wait for both joins.
	for len(master.Workers()) < 2 {
		time.Sleep(10 * time.Millisecond)
	}

	// Stream two seconds of video.
	const frames = 48
	src := swing.NewFrameSource(app.FrameBytes, 7)
	ticker := time.NewTicker(time.Second / 24)
	defer ticker.Stop()
	for i := 0; i < frames; i++ {
		<-ticker.C
		if err := master.Submit(src.Next()); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
	}

	// Collect in-order results.
	byWorker := map[string]int{}
	for i := 0; i < frames; i++ {
		select {
		case r := <-results:
			name, err := r.Tuple.MustString("result")
			if err != nil {
				return err
			}
			if r.Tuple.SeqNo%12 == 0 {
				fmt.Printf("frame %2d: recognized %q on %s (%.0f ms)\n",
					r.Tuple.SeqNo, name, r.Worker,
					float64(r.Latency)/float64(time.Millisecond))
			}
			byWorker[r.Worker]++
		case <-time.After(5 * time.Second):
			st := master.Stats()
			fmt.Printf("timed out waiting for results: %+v\n", st)
			return nil
		}
	}
	fmt.Println("\nload split (LRS avoids the slow device):")
	for id, n := range byWorker {
		fmt.Printf("  %-10s %d frames\n", id, n)
	}
	return nil
}

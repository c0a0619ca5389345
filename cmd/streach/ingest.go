package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"streach/internal/mapmatch"
	"streach/internal/traj"
)

// streach ingest: replay a raw GPS CSV against a running serve's
// POST /v1/ingest, open-loop at a target rate. The CSV is map-matched
// onto the (deterministically regenerated) network first, so the wire
// carries segment-resolved updates — the same pre-processing the offline
// pipeline applies, moved in front of the live endpoint. Open-loop
// means the replayer does not slow down when the server sheds load: a
// 429 counts the batch shed and the clock keeps running, which is what
// makes the achieved-rate number honest.
func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	wf := addWorldFlags(fs)
	url := fs.String("url", "http://localhost:8780", "base URL of a running streach serve")
	gps := fs.String("gps", "", "input GPS CSV to replay (required; see gen-gps)")
	base := fs.String("base", "2014-11-01", "base date (day 0), YYYY-MM-DD")
	rate := fs.Float64("rate", 2000, "target updates/second (open loop)")
	batch := fs.Int("batch", 256, "updates per POST")
	wait := fs.Bool("wait", false, "ask the server to fold each batch before answering (?wait=1)")
	compact := fs.Bool("compact", false, "trigger a delta compaction after the replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gps == "" {
		return fmt.Errorf("ingest: -gps is required")
	}
	baseDate, err := time.Parse("2006-01-02", *base)
	if err != nil {
		return fmt.Errorf("ingest: parse base date: %w", err)
	}
	net, err := buildNetworkOnly(wf)
	if err != nil {
		return err
	}
	f, err := os.Open(*gps)
	if err != nil {
		return err
	}
	raws, err := traj.ReadGPSCSV(f, baseDate)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "map-matching %d trajectories...\n", len(raws))
	matcher := mapmatch.New(net, mapmatch.DefaultConfig())
	var updates []wireUpdate
	for i := range raws {
		mt, err := matcher.Match(&raws[i])
		if err != nil {
			return fmt.Errorf("ingest: trajectory %d: %w", i, err)
		}
		for _, v := range mt.Visits {
			updates = append(updates, wireUpdate{
				Taxi: int32(mt.Taxi), Day: int(mt.Day), Seg: int32(v.Segment),
				EnterMs: v.EnterMs, ExitMs: v.ExitMs, SpeedMps: v.Speed,
			})
		}
	}
	if len(updates) == 0 {
		return fmt.Errorf("ingest: no visits matched")
	}
	fmt.Fprintf(os.Stderr, "replaying %d updates at %.0f/s...\n", len(updates), *rate)

	client := &http.Client{Timeout: 30 * time.Second}
	endpoint := *url + "/v1/ingest"
	if *wait {
		endpoint += "?wait=1"
	}
	interval := time.Duration(float64(*batch) / *rate * float64(time.Second))
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var sent, accepted, shed int
	began := time.Now()
	for off := 0; off < len(updates); off += *batch {
		end := off + *batch
		if end > len(updates) {
			end = len(updates)
		}
		n, err := postIngest(client, endpoint, updates[off:end])
		if err != nil {
			return err
		}
		sent += end - off
		accepted += n
		shed += (end - off) - n
		if end < len(updates) {
			<-tick.C
		}
	}
	elapsed := time.Since(began)
	fmt.Printf("sent %d updates in %.2fs (%.0f/s achieved): %d accepted, %d shed\n",
		sent, elapsed.Seconds(), float64(sent)/elapsed.Seconds(), accepted, shed)
	if *compact {
		resp, err := client.Post(*url+"/v1/ingest/compact", "application/json", nil)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("compaction: %s\n", bytes.TrimSpace(body))
	}
	return nil
}

// wireUpdate mirrors the serve layer's JSON update shape.
type wireUpdate struct {
	Taxi     int32   `json:"taxi"`
	Day      int     `json:"day"`
	Seg      int32   `json:"seg"`
	EnterMs  int32   `json:"enter_ms"`
	ExitMs   int32   `json:"exit_ms"`
	SpeedMps float32 `json:"speed_mps"`
}

// postIngest POSTs one batch and returns how many updates the server
// accepted. A 429 is not an error — it is the backpressure contract —
// and partial acceptance is read out of the response body.
func postIngest(client *http.Client, endpoint string, batch []wireUpdate) (int, error) {
	body, err := json.Marshal(map[string]any{"updates": batch})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var ack struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return 0, fmt.Errorf("ingest: bad response (%s): %v", resp.Status, err)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusTooManyRequests:
		return ack.Accepted, nil
	}
	return 0, fmt.Errorf("ingest: %s: %s", resp.Status, ack.Error)
}

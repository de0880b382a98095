package promtext

import (
	"strings"
	"testing"
)

func TestWriteAndParseRoundTrip(t *testing.T) {
	fams := []Family{
		{Name: "up_seconds", Help: "Uptime.", Type: "gauge", Samples: []Sample{{Value: 12.5}}},
		{Name: "reqs_total", Help: "Requests.", Type: "counter", Samples: []Sample{
			{Labels: []Label{{Name: "route", Value: "a/L0/standard"}}, Value: 3},
			{Labels: []Label{{Name: "route", Value: "b/L1/shred"}}, Value: 7},
		}},
	}
	var sb strings.Builder
	if err := Write(&sb, fams); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("parse own output: %v\n%s", err, sb.String())
	}
	if got := parsed["up_seconds"]; got == nil || got.Type != "gauge" || got.Samples[0].Value != 12.5 {
		t.Fatalf("up_seconds parsed wrong: %+v", got)
	}
	reqs := parsed["reqs_total"]
	if reqs == nil || len(reqs.Samples) != 2 {
		t.Fatalf("reqs_total parsed wrong: %+v", reqs)
	}
	if reqs.Samples[0].Labels["route"] != "a/L0/standard" {
		t.Fatalf("label lost: %+v", reqs.Samples[0])
	}
}

func TestLabelEscaping(t *testing.T) {
	fams := []Family{{Name: "m", Help: "H.", Type: "gauge", Samples: []Sample{
		{Labels: []Label{{Name: "k", Value: `a\b"c` + "\nd"}}, Value: 1},
	}}}
	var sb strings.Builder
	if err := Write(&sb, fams); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("parse escaped labels: %v\n%s", err, sb.String())
	}
	got := parsed["m"].Samples[0].Labels["k"]
	want := `a\b"c` + "\nd"
	if got != want {
		t.Fatalf("escape round trip: got %q want %q", got, want)
	}
}

func TestHistogramSamples(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	counts := []int64{2, 3, 0}
	samples := HistogramSamples([]Label{{Name: "route", Value: "r"}}, bounds, counts, 1, 4.2)
	fams := []Family{{Name: "lat_seconds", Help: "Latency.", Type: "histogram", Samples: samples}}
	var sb strings.Builder
	if err := Write(&sb, fams); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("parse histogram: %v\n%s", err, sb.String())
	}
	var infVal, countVal float64
	for _, s := range parsed["lat_seconds"].Samples {
		switch s.Name {
		case "lat_seconds_bucket":
			if s.Labels["le"] == "+Inf" {
				infVal = s.Value
			}
		case "lat_seconds_count":
			countVal = s.Value
		}
	}
	if infVal != 6 || countVal != 6 {
		t.Fatalf("+Inf=%g count=%g, want 6", infVal, countVal)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []struct {
		name, text string
	}{
		{"sample before HELP", "m 1\n"},
		{"sample before TYPE", "# HELP m h\nm 1\n"},
		{"unknown type", "# HELP m h\n# TYPE m widget\nm 1\n"},
		{"duplicate HELP", "# HELP m h\n# TYPE m gauge\n# HELP m h2\n"},
		{"duplicate TYPE", "# HELP m h\n# TYPE m gauge\n# TYPE m gauge\n"},
		{"foreign sample", "# HELP m h\n# TYPE m gauge\nother 1\n"},
		{"trailing content", "# HELP m h\n# TYPE m gauge\nm 1 extra stuff\n"},
		{"bad value", "# HELP m h\n# TYPE m gauge\nm xyz\n"},
		{"duplicate label", `# HELP m h` + "\n" + `# TYPE m gauge` + "\n" + `m{a="1",a="2"} 1` + "\n"},
		{"unterminated labels", `# HELP m h` + "\n" + `# TYPE m gauge` + "\n" + `m{a="1" 1` + "\n"},
		{"histogram missing inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n"},
		{"histogram non-cumulative", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"histogram count mismatch", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n"},
		{"repeated series", "# HELP x_total h\n# TYPE x_total counter\n" + `x_total{route="a"} 1` + "\n" + `x_total{route="a"} 2` + "\n"},
		{"repeated unlabelled series", "# HELP m h\n# TYPE m gauge\nm 1\nm 2\n"},
	}
	for _, tc := range bad {
		if _, err := Parse(tc.text); err == nil {
			t.Errorf("%s: parse accepted malformed input", tc.name)
		}
	}
}

func TestParseAcceptsInfAndComments(t *testing.T) {
	text := "# HELP m h\n# TYPE m gauge\n# a free-form comment\nm +Inf\n"
	parsed, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed["m"].Samples) != 1 {
		t.Fatalf("samples: %+v", parsed["m"].Samples)
	}
}

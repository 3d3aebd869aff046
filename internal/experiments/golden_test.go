package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGoldenRunAll is the results lock: every artifact RunAll renders
// for a small fixed configuration must match the committed output byte
// for byte, so any change to a predictor, the simulator, the engine or
// an experiment's formatting shows up here as a diff. After an intended
// change, regenerate the file from the module root with
//
//	go run ./cmd/vpredict -exp all -events 5000 -bench compress,m88ksim -q \
//	  > internal/experiments/testdata/all-5000-compress-m88ksim.txt
func TestGoldenRunAll(t *testing.T) {
	const golden = "testdata/all-5000-compress-m88ksim.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	cfg := Config{Events: 5000, Benchmarks: []string{"compress", "m88ksim"}, Scale: 1}
	if err := RunAll(&got, cfg); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got  %q\n want %q", golden, i+1, g, w)
		}
	}
	t.Fatalf("%s differs from the rendered output", golden)
}

package server

import (
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/mechanism"
)

// FuzzRatDecode throws arbitrary strings at the wire-format rational
// decoder. Accepted values must encode back to a canonical fixed point
// (decode∘encode = identity on the encoded form) and survive a JSON round
// trip. This target surfaced the big.Rat exponent expansion ("1e999999999"
// materializing a billion-digit integer), now rejected by numeric.Parse.
func FuzzRatDecode(f *testing.F) {
	f.Add("0")
	f.Add("1")
	f.Add("-7")
	f.Add("22/7")
	f.Add("-3/9")
	f.Add("0.125")
	f.Add("1e3")
	f.Add("1e999999999")
	f.Add("1/0")
	f.Add("9223372036854775807")
	f.Add("170141183460469231731687303715884105727/3")
	f.Add(" 1")
	f.Add("+2/4")
	f.Fuzz(func(t *testing.T, input string) {
		r, err := DecodeRat(input)
		if err != nil {
			return
		}
		enc := EncodeRat(r)
		r2, err := DecodeRat(enc)
		if err != nil {
			t.Fatalf("decode of own encoding %q: %v", enc, err)
		}
		if !r.Equal(r2) {
			t.Fatalf("decode(encode(%q)) = %v, want %v", input, r2, r)
		}
		if EncodeRat(r2) != enc {
			t.Fatalf("encoding not a fixed point: %q -> %q", enc, EncodeRat(r2))
		}
		// The wire format carries rationals as JSON strings; a full JSON
		// round trip must preserve the canonical form.
		blob, err := json.Marshal(enc)
		if err != nil {
			t.Fatalf("marshal %q: %v", enc, err)
		}
		var back string
		if err := json.Unmarshal(blob, &back); err != nil || back != enc {
			t.Fatalf("JSON round trip %q -> %q (err %v)", enc, back, err)
		}
	})
}

// FuzzScenarioRequest throws arbitrary JSON at the /v1/scenario request
// validator (k bounds, grid bounds, member sets, topology family specs).
// The target exercises validateScenario directly against a recorder rather
// than the live endpoint, so fuzzer-synthesized scans are sized but never
// executed. The contract: no panic; an accepted request has a resolved kind
// and a point total within the admission cap; a rejected one answers a 4xx
// with one of the documented stable codes.
func FuzzScenarioRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"kind":"ksybil","graph":{"ring":["1","2","3"]},"v":0,"k":3,"grid":4}`,
		`{"kind":"ksybil","graph":{"ring":["1","2","3"]},"v":0,"k":9}`,
		`{"kind":"ksybil","graph":{"ring":["1","2","3"]},"v":0,"k":8,"grid":512}`,
		`{"kind":"ksybil","graph":{"path":["1","2","3"]},"v":0}`,
		`{"kind":"ksybil","graph":{"ring":["1","2","3"]},"v":-1}`,
		`{"kind":"coalition","graph":{"ring":["1","2","3","4","5"]},"members":[0,2],"grid":3}`,
		`{"kind":"coalition","graph":{"ring":["1","2","3","4","5"]},"members":[1,1]}`,
		`{"kind":"coalition","graph":{"ring":["1","2","3","4","5"]},"members":[0,1,2,3,4]}`,
		`{"kind":"coalition","graph":{"ring":["1","2","3","4","5"]},"members":[0,1,2,3],"grid":9}`,
		`{"kind":"topology","families":["ring","tree"],"count":1,"n":5,"grid":3}`,
		`{"kind":"topology","families":["torus"]}`,
		`{"kind":"topology","families":["ring","ring"]}`,
		`{"kind":"topology","n":1000000}`,
		`{"kind":"topology","grid":-3}`,
		`{"kind":"topology","dist":"zipf"}`,
		`{"kind":"topology","families":["ring"],"cert":true,"mechanism":"eqsplit"}`,
		`{"kind":"quantum"}`,
		`{"kind":"ksybil","graph":{"ring":["1","1e999999999","3"]},"v":0}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv, err := New(Config{Logger: discardLogger()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	knownCodes := map[string]bool{
		CodeBadBody: true, CodeBadGraph: true, CodeNotRing: true,
		CodeBadAgent: true, CodeBadGrid: true, CodeScenarioLimit: true,
		CodeUnknownTopology: true, CodeUnknownMechanism: true,
		CodeCertLimit: true,
	}

	f.Fuzz(func(t *testing.T, body string) {
		var req ScenarioRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			return
		}
		rec := httptest.NewRecorder()
		spec, _, ok := srv.validateScenario(rec, &req)
		if ok {
			if spec.Kind == "" || spec.Total < 1 || spec.Total > maxScenarioPoints {
				t.Fatalf("accepted spec out of bounds: %+v (body %q)", spec, body)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("rejection with status %d (body %q): %s", rec.Code, body, rec.Body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !knownCodes[er.Code] {
			t.Fatalf("unstable error code %q (err %v) for body %q: %s", er.Code, err, body, rec.Body)
		}
	})
}

// FuzzMechanismField throws arbitrary strings at the "mechanism" wire field
// of /v1/allocate. The contract under fuzz: the server never crashes, and
// the answer is exactly 200 for a registered name (or the empty default)
// and 400 unknown_mechanism for everything else — no third outcome, no
// case folding, no trimming.
func FuzzMechanismField(f *testing.F) {
	f.Add("")
	f.Add("bd")
	f.Add("pr")
	f.Add("eqsplit")
	f.Add("quantum")
	f.Add("BD")
	f.Add("bd ")
	f.Add(" bd")
	f.Add("bd\x00")
	f.Add("bd;m=pr")
	f.Add("механизм")

	srv, err := New(Config{Logger: discardLogger()})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)
	f.Cleanup(func() { srv.Close() })
	known := mechanism.Names()

	f.Fuzz(func(t *testing.T, name string) {
		status, raw := postJSON(t, ts.URL, "/v1/allocate",
			AllocateRequest{Graph: WireGraph{Ring: []string{"1", "2", "3"}}, Mechanism: name})
		if name == "" || slices.Contains(known, name) {
			if status != 200 {
				t.Fatalf("registered mechanism %q rejected: %d %s", name, status, raw)
			}
			return
		}
		if status != 400 {
			t.Fatalf("unknown mechanism %q: status %d %s", name, status, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Code != CodeUnknownMechanism {
			t.Fatalf("unknown mechanism %q: body %s (err %v)", name, raw, err)
		}
	})
}

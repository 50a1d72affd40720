package distrun

import (
	"errors"
	"reflect"
	"testing"
)

// TestUnmarshalJobSpecRejectsUnbuildableShapes pins the payload validation
// that keeps a bad rendezvous payload from crashing InitModel: a zero width
// divides by zero in the one-hot batch, and a negative row count sizes a
// slice with a negative length. Both must fail at decode with the named error.
func TestUnmarshalJobSpecRejectsUnbuildableShapes(t *testing.T) {
	cases := []struct {
		name    string
		payload string
	}{
		{"zero width", `{"stages":2,"num_mb":2,"mb_rows":2,"width":0,"steps":1}`},
		{"negative rows", `{"stages":2,"num_mb":2,"mb_rows":-1,"width":8,"steps":1}`},
		{"zero stages", `{"stages":0,"num_mb":2,"mb_rows":2,"width":8,"steps":1}`},
		{"zero microbatches", `{"stages":2,"num_mb":0,"mb_rows":2,"width":8,"steps":1}`},
		{"negative steps", `{"stages":2,"num_mb":2,"mb_rows":2,"width":8,"steps":-1}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalJobSpec([]byte(tc.payload)); !errors.Is(err, ErrInvalidJobSpec) {
				t.Fatalf("payload %s: err = %v, want ErrInvalidJobSpec", tc.payload, err)
			}
		})
	}
	ok := JobSpec{Stages: 2, NumMB: 2, MBRows: 1, Width: 1, Steps: 0}
	if _, err := UnmarshalJobSpec(ok.Marshal()); err != nil {
		t.Fatalf("smallest valid spec rejected: %v", err)
	}
}

// FuzzUnmarshalJobSpec drives the rendezvous payload decoder with arbitrary
// bytes: it must never panic, and every spec it accepts must survive
// Marshal → UnmarshalJobSpec unchanged. Raw-payload seeds live under
// testdata/fuzz/FuzzUnmarshalJobSpec.
func FuzzUnmarshalJobSpec(f *testing.F) {
	f.Add(JobSpec{Stages: 2, NumMB: 4, MBRows: 4, Width: 16, Steps: 3, LR: 0.1, Schedule: "1f1b", Seed: 1}.Marshal())
	f.Add(JobSpec{
		Kind: KindTrain, Stages: 1, DataParallel: 2, NumMB: 4, MBRows: 4, Width: 512,
		Steps: 30, LR: 0.05, Momentum: 0.9, Sharded: true, CkptDir: "ckpt", CkptEvery: 10,
		Schedule: "gpipe", Seed: 7, Shape: &ShapeSpec{LatencyUs: 5000, JitterUs: 2000, BandwidthGBs: 0.5, Seed: 7},
	}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := UnmarshalJobSpec(data)
		if err != nil {
			return
		}
		again, err := UnmarshalJobSpec(spec.Marshal())
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-decode: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}

// FuzzUnmarshalCollectiveSpec drives the collective verification's payload
// decoder with arbitrary bytes: it must never panic, and every spec it
// accepts must survive Marshal → UnmarshalCollectiveSpec unchanged.
// Raw-payload seeds live under testdata/fuzz/FuzzUnmarshalCollectiveSpec.
func FuzzUnmarshalCollectiveSpec(f *testing.F) {
	f.Add(CollectiveSpec{World: 8, Elems: 131072, Iters: 3, Seed: 1, BucketBytes: 262144}.Marshal())
	f.Add(CollectiveSpec{World: 5, Elems: 100003, Iters: 1, WireDType: "f32"}.Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := UnmarshalCollectiveSpec(data)
		if err != nil {
			return
		}
		again, err := UnmarshalCollectiveSpec(spec.Marshal())
		if err != nil {
			t.Fatalf("accepted spec %+v does not re-decode: %v", spec, err)
		}
		if again != spec {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}

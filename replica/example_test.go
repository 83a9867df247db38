package replica_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"krcore"
	"krcore/client"
	"krcore/replica"
	"krcore/server"
)

// ExampleFollower bootstraps a read replica from a live leader: the
// follower downloads the snapshot into its own engine, which it then
// serves (mounted directly as a server backend) bit-identical to the
// leader at the snapshot's offset; Run would tail the leader's journal
// into the same engine.
func ExampleFollower() {
	// A leader: a dynamic engine served with snapshot and journal
	// endpoints. (A production leader also wires a durable
	// updates.Journal as Config.Tail; the example leader has no
	// journal, so followers would re-bootstrap instead of tailing —
	// which is all this example needs.)
	b := krcore.NewGraphBuilder(6)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	geo := krcore.NewGeoAttributes(6)
	deng, err := krcore.NewDynamicEngine(b.Build(), geo)
	if err != nil {
		panic(err)
	}
	s, err := server.New(deng, server.Config{Snapshot: deng.SaveSnapshot})
	if err != nil {
		panic(err)
	}
	leader := httptest.NewServer(s.Handler())
	defer leader.Close()

	// The follower: NewFollower bootstraps it, then its engine serves
	// queries bit-identical to the leader at the snapshot's offset.
	fol, err := replica.NewFollower(context.Background(), replica.FollowerConfig{
		Leader:   leader.URL,
		PollWait: 100 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	eng := fol.Engine()
	rs, err := server.New(eng, server.Config{
		LeaderURL: leader.URL,
		Lag:       fol.Lag,
		OnPromote: fol.Stop,
		Snapshot:  eng.SaveSnapshot,
	})
	if err != nil {
		panic(err)
	}
	replicaHS := httptest.NewServer(rs.Handler())
	defer replicaHS.Close()

	res, err := client.New(replicaHS.URL).Enumerate(context.Background(), 3, 10, client.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("replica cores:", len(res.Cores), "applied offset:", eng.JournalOffset())
	// Output:
	// replica cores: 1 applied offset: 0
}

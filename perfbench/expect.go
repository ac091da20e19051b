package main

import "authradio/internal/core"

// broadcastMessages are the 4-bit messages the broadcast workload
// cycles through by seed. The workload's cost depends on the message
// (over the sixteen messages at deployment seed 3, honest
// transmissions range from 452,613 to 940,128), so only messages with
// identical round and transmission counts are used: every seed does
// the same work, on different inputs.
var broadcastMessages = []uint64{0b1011, 0b1101, 0b0000}

// broadcastMessage is the broadcast's message for a benchmark seed.
func broadcastMessage(seed uint64) uint64 {
	return broadcastMessages[(seed-1)%uint64(len(broadcastMessages))]
}

// broadcastWant is the recorded result, the same for every message of
// broadcastMessages: every honest device completes (the source's
// component is the whole map), in the same rounds and with the same
// transmissions.
var broadcastWant = core.Result{
	EndRound: 2701, Honest: 18999, Complete: 18999, Correct: 812,
	AllComplete: true, LastCompletion: 2458, HonestTx: 604868, ByzTx: 32646,
	Components: 1, SrcCompSize: 20000, SrcHonest: 18999, SrcComplete: 18999,
}

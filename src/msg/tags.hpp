// Protocol tags used over the message fabric.
//
// Tag ranges: 1xx master<->worker control, 2xx worker<->worker distributed
// arrays, 3xx worker<->I/O-server served arrays, 4xx GA baseline, 9xx
// shutdown/housekeeping.
#pragma once

namespace sia::msg {

enum Tag : int {
  // Master <-> worker: pardo chunk scheduling and barriers.
  kChunkRequest = 101,   // worker -> master: [pardo_id]
  kChunkReply = 102,     // master -> worker: [pardo_id, begin, end] (end<=begin: done)
  kBarrierEnter = 103,   // worker -> master: [barrier_id]
  kBarrierRelease = 104, // master -> worker: [barrier_id]
  kScalarReduce = 105,   // worker -> master: [scalar_slot] + data[1]
  kScalarBcast = 106,    // master -> worker: [scalar_slot] + data[1]

  // Guided-schedule work stealing. When the ScheduleTable is exhausted
  // and a worker still asks for work, the master proposes splitting the
  // tail off a victim's outstanding chunk; the victim clamps the split to
  // its current position (iterations already started are never revoked)
  // and grants [max(split, pos), old_end). The grant reaches the thief as
  // an ordinary kChunkReply. Control plane: never faulted by the chaos
  // layer, like the chunk tags above.
  kChunkStealRequest = 107,  // master -> victim: [pardo_id, instance, split]
  kChunkStealReply = 108,    // victim -> master: [pardo_id, instance,
                             //                    grant_begin, grant_end]

  // Worker <-> worker: distributed array traffic.
  kBlockGetRequest = 201,  // [array_id, block_linear, reply_rank, epoch]
  kBlockGetReply = 202,    // [array_id, block_linear] + data
  kBlockPut = 203,         // [array_id, block_linear, writer, epoch,
                           //  screened] + data
  kBlockPutAcc = 204,      // same header, accumulate
  kBlockDelete = 205,      // [array_id] delete all blocks of array

  // Worker <-> I/O server: served array traffic.
  kServedPrepare = 301,     // [array_id, block_linear, epoch] + data
  kServedPrepareAcc = 302,  // [array_id, block_linear, epoch] + data
  kServedRequest = 303,     // [array_id, block_linear, reply_rank]
  kServedReply = 304,       // [array_id, block_linear, miss, lookahead]
  kServerBarrierEnter = 305,  // worker -> server: flush, then ack
  kServerBarrierAck = 306,    // server -> master
  kServedDelete = 307,        // [array_id]
  kServerFlushHint = 308,     // worker -> server: flush dirty so pending
                              // prepares get durability-acked (pre-barrier)

  // GA baseline library.
  kGaGet = 401,
  kGaGetReply = 402,
  kGaPut = 403,
  kGaAcc = 404,
  kGaPutAck = 405,

  // Housekeeping.
  kShutdown = 901,
  kAbort = 902,  // fatal error: header = [byte_count], data = error text
                 // packed 8 bytes per double (sip/spawn.hpp pack helpers)

  // Fault-tolerance protocol (PR 4).
  kHeartbeatPing = 903,  // master -> rank: [tick]
  kHeartbeatAck = 904,   // rank -> master: [tick, rank]
  kProtoAck = 905,       // standalone ack: msg.ack = applied seq

  // Process ranks: a spawned rank ships its end-of-run RankReport
  // (counters, profile and, for the first worker, final scalar values)
  // back to the launch. header = the encoded report
  // (sip/rank_report.hpp), data empty.
  kResultReport = 906,
};

}  // namespace sia::msg

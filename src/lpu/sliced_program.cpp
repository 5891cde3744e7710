#include "lpu/sliced_program.hpp"

#include <algorithm>
#include <utility>

namespace lbnn {

namespace {

/// True when routes[i] is the last write to its register slot within the
/// instruction — only the last write is observable (the scalar interpreter
/// applies route writes in order, so earlier writes to the same slot are
/// dead). Fused switch delivery must honour exactly that.
bool is_last_slot_writer(const std::vector<RouteWrite>& routes, std::size_t i) {
  for (std::size_t k = i + 1; k < routes.size(); ++k) {
    if (routes[k].slot == routes[i].slot) return false;
  }
  return true;
}

}  // namespace

// -------------------------------------------------------------------------
// Lower the program into the flat op stream the bit-sliced kernels
// execute. The interpreter's entire control flow — register/lane validity,
// feedback read-after-write ordering, multicast fanout, dead-write elision,
// SimError conditions, counters — depends only on the immutable program,
// never on batch data. So it runs HERE, once, and execution degenerates to
// kernel calls and row copies. The walk mirrors the scalar interpreter
// statement for statement.
// -------------------------------------------------------------------------
SlicedProgram compile_sliced(const Program& prog) {
  prog.validate();
  SlicedProgram sp;
  const std::uint32_t n = prog.cfg.n;
  const std::uint32_t m = prog.cfg.m;
  const std::uint32_t W = prog.num_wavefronts;
  const std::uint32_t num_in = static_cast<std::uint32_t>(prog.input_layout.size());
  const std::uint32_t reg0 = 1 + num_in;
  sp.out_row0 = reg0 + n * 2 * m;
  const std::uint32_t fb0 =
      sp.out_row0 + static_cast<std::uint32_t>(prog.num_primary_outputs);

  // Fused-delivery fanout: for each (wavefront, lpv, lane) compute, which
  // register slots of the next LPV consume it. Routes whose slot a later
  // route overwrites, or whose source lane is out of range (the route stage
  // throws before the value could matter), are excluded. CSR over
  // (wavefront * n + producer_lpv) * m + lane.
  const std::size_t cells = static_cast<std::size_t>(W) * n * m;
  std::vector<std::uint32_t> fan_off(cells + 1, 0);
  for (std::uint32_t w = 0; w < W; ++w) {
    for (std::uint32_t j = 1; j < n; ++j) {
      const auto& routes = prog.instr[w][j].routes;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        const RouteWrite& r = routes[i];
        if (r.src.kind != SrcSel::Kind::kPrevLane || r.src.index >= m) continue;
        if (!is_last_slot_writer(routes, i)) continue;
        const std::size_t cell =
            (static_cast<std::size_t>(w) * n + (j - 1)) * m + r.src.index;
        ++fan_off[cell + 1];
      }
    }
  }
  for (std::size_t c = 1; c < fan_off.size(); ++c) fan_off[c] += fan_off[c - 1];
  std::vector<std::uint32_t> fan_slot(fan_off.back());
  {
    std::vector<std::uint32_t> cursor(fan_off.begin(), fan_off.end() - 1);
    for (std::uint32_t w = 0; w < W; ++w) {
      for (std::uint32_t j = 1; j < n; ++j) {
        const auto& routes = prog.instr[w][j].routes;
        for (std::size_t i = 0; i < routes.size(); ++i) {
          const RouteWrite& r = routes[i];
          if (r.src.kind != SrcSel::Kind::kPrevLane || r.src.index >= m) continue;
          if (!is_last_slot_writer(routes, i)) continue;
          const std::size_t cell =
              (static_cast<std::size_t>(w) * n + (j - 1)) * m + r.src.index;
          fan_slot[cursor[cell]++] = r.slot;
        }
      }
    }
  }

  // Output taps bucketed by wavefront.
  std::vector<std::vector<const OutputTap*>> taps_at(W);
  for (const auto& tap : prog.output_taps) taps_at[tap.wavefront].push_back(&tap);

  const std::size_t fb_addrs = static_cast<std::size_t>(W) * m;
  std::vector<std::int64_t> fb_row(fb_addrs, -1);
  std::vector<std::uint64_t> fb_time(fb_addrs, 0);
  std::uint32_t fb_rows = 0;

  std::vector<char> reg_valid(static_cast<std::size_t>(n) * 2 * m, 0);
  std::vector<char> prev_valid(m, 0);
  std::vector<char> cur_valid(m, 0);
  std::vector<char> out_set(prog.num_primary_outputs, 0);
  // Producing compute per lane of the previous/current LPV: index into ops
  // of the kCompute op, or -1 when the lane was not computed. Terminal-stage
  // consumers (feedback, taps) append their destination rows to it.
  std::vector<std::int64_t> cur_op(m, -1);

  CounterPrefix c;
  sp.wave_op_end.assign(W, 0);
  sp.counters_at.assign(static_cast<std::size_t>(W) + 1, CounterPrefix{});
  sp.num_wavefronts = W;
  sp.compiled_waves = W;

  bool err = false;
  auto fail = [&](std::string msg) {
    sp.error = true;
    sp.error_msg = std::move(msg);
    sp.error_counters = c;
    err = true;
  };

  // Emit a compute: the kernel runs into the first destination row, the
  // multicast copies the row to the rest. Returns the op index of the
  // kCompute (or of a sentinel record when the result has no consumer yet —
  // a terminal-stage consumer may still attach one).
  auto emit_compute = [&](std::uint8_t bits, std::uint32_t a, std::uint32_t b)
      -> std::size_t {
    SlicedOp op;
    op.kind = SlicedOp::kCompute;
    op.bits = bits;
    op.a = a;
    op.b = b;
    op.dst = 0;  // patched by the first attach; 0 marks "no consumer yet"
    sp.ops.push_back(op);
    return sp.ops.size() - 1;
  };
  auto attach_dst = [&](std::size_t op_idx, std::uint32_t dst_row) {
    SlicedOp& op = sp.ops[op_idx];
    if (op.dst == 0) {
      op.dst = dst_row;  // row 0 is the zero row — never a real destination
      return;
    }
    SlicedOp copy;
    copy.kind = SlicedOp::kCopy;
    copy.a = op.dst;
    copy.dst = dst_row;
    sp.ops.push_back(copy);
  };

  for (std::uint32_t w = 0; w < W && !err; ++w) {
    sp.counters_at[w] = c;
    std::fill(prev_valid.begin(), prev_valid.end(), 0);
    for (std::uint32_t j = 0; j < n && !err; ++j) {
      const LpvInstr& instr = prog.instr[w][j];
      if (!instr.empty()) {
        SlicedOp hop;
        hop.kind = SlicedOp::kHook;
        hop.a = j;
        sp.ops.push_back(hop);
      }
      char* const valid_j =
          reg_valid.data() + static_cast<std::size_t>(j) * 2 * m;
      const std::uint32_t regs_j = reg0 + j * 2 * m;

      // 1. Switch stage. Previous-lane routes were already attached to their
      // producing compute (the fanout CSR); only input/feedback copies — for
      // the slot's last writer — become ops.
      for (std::size_t ri = 0; ri < instr.routes.size() && !err; ++ri) {
        const RouteWrite& r = instr.routes[ri];
        switch (r.src.kind) {
          case SrcSel::Kind::kPrevLane:
            if (j == 0) {
              fail("LPV 0 has no predecessor to route from");
            } else if (r.src.index >= m || !prev_valid[r.src.index]) {
              fail("route from an invalid previous-LPV lane");
            }
            break;
          case SrcSel::Kind::kInput:
            if (is_last_slot_writer(instr.routes, ri)) {
              SlicedOp copy;
              copy.kind = SlicedOp::kCopy;
              copy.a = 1 + r.src.index;
              copy.dst = regs_j + r.slot;
              sp.ops.push_back(copy);
            }
            ++c.input_reads;
            break;
          case SrcSel::Kind::kFeedback:
            if (r.src.index >= fb_addrs || fb_row[r.src.index] < 0) {
              fail("feedback read before write (address " +
                   std::to_string(r.src.index) + ")");
            } else if (static_cast<std::uint64_t>(w) + j <=
                       fb_time[r.src.index]) {
              fail("feedback read would outrun its write in hardware");
            } else if (is_last_slot_writer(instr.routes, ri)) {
              SlicedOp copy;
              copy.kind = SlicedOp::kCopy;
              copy.a = fb0 + static_cast<std::uint32_t>(fb_row[r.src.index]);
              copy.dst = regs_j + r.slot;
              sp.ops.push_back(copy);
            }
            break;
        }
        if (err) break;
        valid_j[r.slot] = 1;
        ++c.route_writes;
      }
      if (err) break;

      // 2. Compute stage.
      std::fill(cur_valid.begin(), cur_valid.end(), 0);
      std::fill(cur_op.begin(), cur_op.end(), std::int64_t{-1});
      for (const ComputeWrite& cw : instr.computes) {
        const std::size_t slot_a = static_cast<std::size_t>(cw.lane) * 2;
        if (!cw.lut.ignores_a() && !valid_j[slot_a]) {
          fail("LPE computes over an invalid A operand");
          break;
        }
        if (!cw.lut.ignores_b() && !valid_j[slot_a + 1]) {
          fail("LPE computes over an invalid B operand");
          break;
        }
        const std::uint32_t arow =
            valid_j[slot_a] ? regs_j + static_cast<std::uint32_t>(slot_a) : 0;
        const std::uint32_t brow =
            valid_j[slot_a + 1] ? regs_j + static_cast<std::uint32_t>(slot_a) + 1
                                : 0;
        cur_valid[cw.lane] = 1;
        ++c.lpe_computes;
        cur_op[cw.lane] =
            static_cast<std::int64_t>(emit_compute(cw.lut.bits() & 0xF, arow, brow));
        if (j + 1 < n) {
          const std::size_t cell =
              (static_cast<std::size_t>(w) * n + j) * m + cw.lane;
          const std::uint32_t regs_next = regs_j + 2 * m;
          for (std::uint32_t k = fan_off[cell]; k < fan_off[cell + 1]; ++k) {
            attach_dst(static_cast<std::size_t>(cur_op[cw.lane]),
                       regs_next + fan_slot[k]);
          }
        }
      }
      if (err) break;

      // 3. Terminal LPV: feedback writes and output taps attach their rows
      // to the producing computes. Delivery then happens during the compute
      // stage instead of after it — unobservable, the rows are disjoint from
      // everything this instruction reads.
      if (j == n - 1) {
        for (const Lane lane : instr.feedback_writes) {
          if (!cur_valid[lane]) {
            fail("feedback write of an invalid lane");
            break;
          }
          const std::uint32_t addr = w * m + lane;
          if (fb_row[addr] < 0) fb_row[addr] = fb_rows++;
          fb_time[addr] = static_cast<std::uint64_t>(w) + n - 1;
          attach_dst(static_cast<std::size_t>(cur_op[lane]),
                     fb0 + static_cast<std::uint32_t>(fb_row[addr]));
          ++c.feedback_words;
        }
        if (err) break;
        // Multiple taps of one primary output in the same wavefront: the
        // interpreter applies them in tap order, so only the last lands.
        for (std::size_t t = 0; t < taps_at[w].size() && !err; ++t) {
          const OutputTap* tap = taps_at[w][t];
          if (!cur_valid[tap->lane]) {
            fail("output tap of an invalid lane");
            break;
          }
          bool last_for_po = true;
          for (std::size_t t2 = t + 1; t2 < taps_at[w].size(); ++t2) {
            if (taps_at[w][t2]->po_index == tap->po_index) last_for_po = false;
          }
          if (last_for_po) {
            attach_dst(static_cast<std::size_t>(cur_op[tap->lane]),
                       sp.out_row0 + tap->po_index);
          }
          out_set[tap->po_index] = 1;
        }
        if (err) break;
      }
      prev_valid.swap(cur_valid);
    }
    sp.wave_op_end[w] = static_cast<std::uint32_t>(sp.ops.size());
    if (err) sp.compiled_waves = w + 1;
  }

  if (!err) {
    sp.counters_at[W] = c;
    for (std::size_t po = 0; po < out_set.size(); ++po) {
      if (!out_set[po]) {
        fail("primary output " + std::to_string(po) + " never produced");
        break;
      }
    }
  }
  // Cull computes that ended with no consumer (dst still 0): the scalar
  // oracle computes and drops the value — observationally identical, and the
  // lpe_computes counter above already counted them.
  std::size_t keep = 0;
  std::vector<std::uint32_t> remap(sp.ops.size());
  for (std::size_t i = 0; i < sp.ops.size(); ++i) {
    remap[i] = static_cast<std::uint32_t>(keep);
    if (sp.ops[i].kind == SlicedOp::kCompute && sp.ops[i].dst == 0) continue;
    sp.ops[keep++] = sp.ops[i];
  }
  sp.ops.resize(keep);
  for (std::uint32_t w = 0; w < W; ++w) {
    sp.wave_op_end[w] = sp.wave_op_end[w] < remap.size()
                            ? remap[sp.wave_op_end[w]]
                            : static_cast<std::uint32_t>(keep);
  }
  sp.num_rows = fb0 + fb_rows;
  return sp;
}

}  // namespace lbnn

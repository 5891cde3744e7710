#include "verilog/parser.hpp"

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "verilog/lexer.hpp"

namespace lbnn::verilog {
namespace {

enum class NetKind { kInput, kOutput, kWire };

/// One declared signal (scalar or vector). Vector bits are net indices
/// bit[i] for the value at index lsb+i.
struct Signal {
  NetKind kind = NetKind::kWire;
  int msb = -1;  ///< -1 for scalar
  int lsb = -1;
  std::vector<int> bit_nets;
  int decl_order = 0;
};

/// Driver expression for a single-bit net.
struct Expr {
  enum class Kind { kRef, kConst, kOp };
  Kind kind = Kind::kConst;
  int net = -1;                 // kRef
  bool value = false;           // kConst
  GateOp op = GateOp::kBuf;     // kOp (n-ary for commutative ops)
  std::vector<Expr> args;

  static Expr ref(int n) {
    Expr e;
    e.kind = Kind::kRef;
    e.net = n;
    return e;
  }
  static Expr constant(bool v) {
    Expr e;
    e.kind = Kind::kConst;
    e.value = v;
    return e;
  }
  static Expr make_op(GateOp o, std::vector<Expr> a) {
    Expr e;
    e.kind = Kind::kOp;
    e.op = o;
    e.args = std::move(a);
    return e;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view source) : toks_(lex(source)) {}

  ParsedModule run() {
    parse_module_header();
    while (!peek().is_ident("endmodule")) {
      parse_statement();
    }
    expect_ident("endmodule");
    return build();
  }

 private:
  // ---- token helpers -------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, toks_.size() - 1);
    return toks_[i];
  }
  const Token& take() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  [[noreturn]] void fail(const std::string& msg) const {
    throw ParseError(msg, peek().line, peek().column);
  }
  void expect_symbol(char c) {
    if (!peek().is_symbol(c)) fail(std::string("expected '") + c + "'");
    take();
  }
  void expect_ident(std::string_view s) {
    if (!peek().is_ident(s)) fail("expected '" + std::string(s) + "'");
    take();
  }
  std::string expect_name() {
    if (peek().kind != TokKind::kIdent) fail("expected identifier");
    return take().text;
  }
  int expect_number() {
    if (peek().kind != TokKind::kNumber) fail("expected number");
    int value = 0;
    try {
      value = std::stoi(peek().text);
    } catch (const std::exception&) {
      fail("number '" + peek().text + "' out of range");
    }
    take();
    return value;
  }

  // ---- net table -----------------------------------------------------------
  int new_net() {
    drivers_.push_back(std::nullopt);
    return static_cast<int>(drivers_.size()) - 1;
  }

  Signal& declare(const std::string& name, NetKind kind, int msb, int lsb) {
    auto [it, inserted] = signals_.try_emplace(name);
    Signal& sig = it->second;
    if (inserted) {
      sig.kind = kind;
      sig.msb = msb;
      sig.lsb = lsb;
      sig.decl_order = next_decl_order_++;
      const int bits = (msb < 0) ? 1 : (msb - lsb + 1);
      for (int i = 0; i < bits; ++i) sig.bit_nets.push_back(new_net());
      if (kind != NetKind::kWire) port_decl_order_.push_back(name);
    } else {
      // Re-declaration: `output y;` after the port list, or `wire` + `output`.
      if (kind != NetKind::kWire && sig.kind == NetKind::kWire) {
        sig.kind = kind;
        port_decl_order_.push_back(name);
      } else if (kind != NetKind::kWire && sig.kind != kind) {
        fail("conflicting declaration of '" + name + "'");
      }
    }
    return sig;
  }

  /// Resolve `name` (with optional bit index) to a net id.
  int resolve_bit(const std::string& name, std::optional<int> index) {
    const auto it = signals_.find(name);
    if (it == signals_.end()) fail("undeclared signal '" + name + "'");
    const Signal& sig = it->second;
    if (sig.msb < 0) {
      if (index.has_value()) fail("bit-select on scalar '" + name + "'");
      return sig.bit_nets[0];
    }
    if (!index.has_value()) fail("vector '" + name + "' needs a bit-select");
    const int idx = *index;
    if (idx < sig.lsb || idx > sig.msb) fail("bit index out of range for '" + name + "'");
    return sig.bit_nets[static_cast<std::size_t>(idx - sig.lsb)];
  }

  void set_driver(int net, Expr e) {
    if (drivers_[static_cast<std::size_t>(net)].has_value()) fail("net has multiple drivers");
    drivers_[static_cast<std::size_t>(net)] = std::move(e);
  }

  // ---- grammar -------------------------------------------------------------
  void parse_module_header() {
    expect_ident("module");
    module_name_ = expect_name();
    if (peek().is_symbol('(')) {
      take();
      if (!peek().is_symbol(')')) {
        do {
          if (peek().is_ident("input") || peek().is_ident("output")) {
            // ANSI-style port declaration.
            const NetKind kind = peek().is_ident("input") ? NetKind::kInput : NetKind::kOutput;
            take();
            if (peek().is_ident("wire")) take();
            auto [msb, lsb] = parse_optional_range();
            declare(expect_name(), kind, msb, lsb);
          } else {
            // Plain name; direction comes from a later declaration.
            header_ports_.push_back(expect_name());
          }
        } while (peek().is_symbol(',') && (take(), true));
      }
      expect_symbol(')');
    }
    expect_symbol(';');
  }

  std::pair<int, int> parse_optional_range() {
    if (!peek().is_symbol('[')) return {-1, -1};
    take();
    const int msb = expect_number();
    expect_symbol(':');
    const int lsb = expect_number();
    expect_symbol(']');
    if (lsb > msb) fail("descending ranges [lsb:msb] are not supported");
    return {msb, lsb};
  }

  void parse_statement() {
    const Token& t = peek();
    if (t.is_ident("input") || t.is_ident("output") || t.is_ident("wire")) {
      parse_declaration();
    } else if (t.is_ident("assign")) {
      parse_assign();
    } else if (is_gate_keyword(t)) {
      parse_gate_instance();
    } else {
      fail("expected declaration, assign, or gate instance");
    }
  }

  void parse_declaration() {
    NetKind kind = NetKind::kWire;
    if (peek().is_ident("input")) kind = NetKind::kInput;
    else if (peek().is_ident("output")) kind = NetKind::kOutput;
    take();
    if (peek().is_ident("wire")) take();
    const auto [msb, lsb] = parse_optional_range();
    do {
      declare(expect_name(), kind, msb, lsb);
    } while (peek().is_symbol(',') && (take(), true));
    expect_symbol(';');
  }

  static bool is_gate_keyword(const Token& t) {
    return t.is_ident("and") || t.is_ident("nand") || t.is_ident("or") ||
           t.is_ident("nor") || t.is_ident("xor") || t.is_ident("xnor") ||
           t.is_ident("not") || t.is_ident("buf");
  }

  static GateOp gate_keyword_op(const std::string& s) {
    if (s == "and") return GateOp::kAnd;
    if (s == "nand") return GateOp::kNand;
    if (s == "or") return GateOp::kOr;
    if (s == "nor") return GateOp::kNor;
    if (s == "xor") return GateOp::kXor;
    if (s == "xnor") return GateOp::kXnor;
    if (s == "not") return GateOp::kNot;
    return GateOp::kBuf;
  }

  void parse_gate_instance() {
    const GateOp op = gate_keyword_op(take().text);
    if (peek().kind == TokKind::kIdent) take();  // optional instance name
    expect_symbol('(');
    // First operand is the output; parse all as terms, split after.
    std::vector<Expr> terms;
    std::vector<std::optional<int>> term_nets;
    do {
      // Port connections must be net references (no expressions).
      const std::string name = expect_name();
      std::optional<int> index;
      if (peek().is_symbol('[')) {
        take();
        index = expect_number();
        expect_symbol(']');
      }
      const int net = resolve_bit(name, index);
      terms.push_back(Expr::ref(net));
      term_nets.push_back(net);
    } while (peek().is_symbol(',') && (take(), true));
    expect_symbol(')');
    expect_symbol(';');

    if (terms.size() < 2) fail("gate instance needs an output and at least one input");
    const int out = *term_nets[0];
    std::vector<Expr> ins(terms.begin() + 1, terms.end());
    if (gate_arity(op) == 1) {
      if (ins.size() != 1) fail("not/buf takes exactly one input");
      set_driver(out, Expr::make_op(op, std::move(ins)));
    } else {
      if (ins.size() < 2) fail("binary gate needs at least two inputs");
      set_driver(out, Expr::make_op(op, std::move(ins)));
    }
  }

  void parse_assign() {
    expect_ident("assign");
    const std::string name = expect_name();
    std::optional<int> index;
    if (peek().is_symbol('[')) {
      take();
      index = expect_number();
      expect_symbol(']');
    }
    const int lhs = resolve_bit(name, index);
    expect_symbol('=');
    Expr rhs = parse_or_expr();
    expect_symbol(';');
    set_driver(lhs, std::move(rhs));
  }

  // Precedence (loosest to tightest): |  then ^/~^  then &  then unary ~.
  Expr parse_or_expr() {
    Expr e = parse_xor_expr();
    while (peek().is_symbol('|')) {
      take();
      Expr rhs = parse_xor_expr();
      e = Expr::make_op(GateOp::kOr, {std::move(e), std::move(rhs)});
    }
    return e;
  }

  Expr parse_xor_expr() {
    Expr e = parse_and_expr();
    while (peek().is_symbol('^') || peek().kind == TokKind::kXnorOp) {
      const bool is_xnor = take().kind == TokKind::kXnorOp;
      Expr rhs = parse_and_expr();
      e = Expr::make_op(is_xnor ? GateOp::kXnor : GateOp::kXor,
                        {std::move(e), std::move(rhs)});
    }
    return e;
  }

  Expr parse_and_expr() {
    Expr e = parse_unary();
    while (peek().is_symbol('&')) {
      take();
      Expr rhs = parse_unary();
      e = Expr::make_op(GateOp::kAnd, {std::move(e), std::move(rhs)});
    }
    return e;
  }

  Expr parse_unary() {
    if (peek().is_symbol('~')) {
      take();
      return Expr::make_op(GateOp::kNot, {parse_unary()});
    }
    return parse_primary();
  }

  Expr parse_primary() {
    if (peek().is_symbol('(')) {
      take();
      Expr e = parse_or_expr();
      expect_symbol(')');
      return e;
    }
    if (peek().kind == TokKind::kSizedConst) {
      return Expr::constant(decode_one_bit_literal(take()));
    }
    if (peek().kind == TokKind::kNumber) {
      const int v = expect_number();
      if (v != 0 && v != 1) fail("only 1-bit constants are supported in expressions");
      return Expr::constant(v == 1);
    }
    const std::string name = expect_name();
    std::optional<int> index;
    if (peek().is_symbol('[')) {
      take();
      index = expect_number();
      expect_symbol(']');
    }
    return Expr::ref(resolve_bit(name, index));
  }

  bool decode_one_bit_literal(const Token& t) {
    // Format: <size>'<base><digits>; we accept any literal whose value is 0/1.
    const auto quote = t.text.find('\'');
    LBNN_CHECK(quote != std::string::npos, "lexer produced bad sized literal");
    const std::string digits = t.text.substr(quote + 2);
    unsigned long value = 0;
    const char base = static_cast<char>(std::tolower(static_cast<unsigned char>(t.text[quote + 1])));
    try {
      value = std::stoul(digits, nullptr, base == 'b' ? 2 : base == 'h' ? 16 : 10);
    } catch (const std::exception&) {
      fail("bad literal '" + t.text + "'");
    }
    if (value > 1) fail("only 1-bit constants are supported in expressions");
    return value == 1;
  }

  // ---- netlist construction ------------------------------------------------
  ParsedModule build() {
    // Header ports declared by name only must have received a direction.
    for (const auto& p : header_ports_) {
      const auto it = signals_.find(p);
      if (it == signals_.end() || it->second.kind == NetKind::kWire) {
        fail("port '" + p + "' has no input/output declaration");
      }
    }

    Netlist nl;
    node_of_net_.assign(drivers_.size(), kInvalidNode);

    // Inputs first, in declaration order, bit by bit.
    for (const auto& name : port_decl_order_) {
      const Signal& sig = signals_.at(name);
      if (sig.kind != NetKind::kInput) continue;
      for (std::size_t i = 0; i < sig.bit_nets.size(); ++i) {
        node_of_net_[static_cast<std::size_t>(sig.bit_nets[i])] =
            nl.add_input(bit_name(name, sig, i));
      }
    }

    // Emit every driven net (dead logic included; DCE is an opt pass).
    visit_state_.assign(drivers_.size(), 0);
    for (std::size_t n = 0; n < drivers_.size(); ++n) {
      if (drivers_[n].has_value()) emit_net(nl, static_cast<int>(n));
    }

    // Outputs, in declaration order.
    for (const auto& name : port_decl_order_) {
      const Signal& sig = signals_.at(name);
      if (sig.kind != NetKind::kOutput) continue;
      for (std::size_t i = 0; i < sig.bit_nets.size(); ++i) {
        const NodeId node = node_of_net_[static_cast<std::size_t>(sig.bit_nets[i])];
        if (node == kInvalidNode) fail("output '" + bit_name(name, sig, i) + "' is never driven");
        nl.add_output(node, bit_name(name, sig, i));
      }
    }

    nl.validate();
    return ParsedModule{module_name_, std::move(nl)};
  }

  static std::string bit_name(const std::string& name, const Signal& sig, std::size_t i) {
    if (sig.msb < 0) return name;
    return name + "[" + std::to_string(sig.lsb + static_cast<int>(i)) + "]";
  }

  NodeId emit_net(Netlist& nl, int net) {
    NodeId& slot = node_of_net_[static_cast<std::size_t>(net)];
    if (slot != kInvalidNode) return slot;
    auto& state = visit_state_[static_cast<std::size_t>(net)];
    if (state == 1) fail("combinational cycle through a net");
    if (!drivers_[static_cast<std::size_t>(net)].has_value()) {
      fail("undriven net used as an operand");
    }
    state = 1;
    slot = emit_expr(nl, *drivers_[static_cast<std::size_t>(net)]);
    state = 2;
    return slot;
  }

  NodeId emit_expr(Netlist& nl, const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kRef:
        return emit_net(nl, e.net);
      case Expr::Kind::kConst:
        return nl.add_gate(e.value ? GateOp::kConst1 : GateOp::kConst0);
      case Expr::Kind::kOp:
        break;
    }
    std::vector<NodeId> args;
    args.reserve(e.args.size());
    for (const Expr& a : e.args) args.push_back(emit_expr(nl, a));

    if (gate_arity(e.op) == 1) {
      return nl.add_gate(e.op, args[0]);
    }
    if (args.size() == 2) {
      return nl.add_gate(e.op, args[0], args[1]);
    }
    // N-ary gates: balanced reduction tree. NAND/NOR/XNOR reduce as the
    // non-complemented op with a final NOT, so nand(a,b,c) = ~(a&b&c).
    GateOp reduce_op = e.op;
    bool complement = false;
    if (e.op == GateOp::kNand) { reduce_op = GateOp::kAnd; complement = true; }
    if (e.op == GateOp::kNor) { reduce_op = GateOp::kOr; complement = true; }
    if (e.op == GateOp::kXnor) { reduce_op = GateOp::kXor; complement = true; }

    while (args.size() > 1) {
      std::vector<NodeId> next;
      next.reserve((args.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
        next.push_back(nl.add_gate(reduce_op, args[i], args[i + 1]));
      }
      if (args.size() % 2 == 1) next.push_back(args.back());
      args = std::move(next);
    }
    if (complement) {
      return nl.add_gate(GateOp::kNot, args[0]);
    }
    return args[0];
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::string module_name_;
  std::vector<std::string> header_ports_;
  std::map<std::string, Signal> signals_;
  std::vector<std::string> port_decl_order_;
  int next_decl_order_ = 0;
  std::vector<std::optional<Expr>> drivers_;
  std::vector<NodeId> node_of_net_;
  std::vector<std::uint8_t> visit_state_;
};

}  // namespace

ParsedModule parse_module(std::string_view source) {
  Parser p(source);
  return p.run();
}

}  // namespace lbnn::verilog

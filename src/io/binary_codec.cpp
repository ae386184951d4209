#include "io/binary_codec.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/error.hpp"

namespace cube::detail {

void BinaryEncoder::u32(std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)));
  out_.write(buf, 4);
}

void BinaryEncoder::u64(std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)));
  out_.write(buf, 8);
}

void BinaryEncoder::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void BinaryEncoder::f64(double v) {
  static_assert(sizeof(double) == 8);
  char buf[8];
  std::memcpy(buf, &v, 8);
  out_.write(buf, 8);
}

void BinaryEncoder::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryDecoder::need(std::size_t n) const {
  if (n > data_.size() - pos_) {
    throw CheckError("file.truncated",
                     "byte offset " + std::to_string(pos_),
                     "stream ends " + std::to_string(n) +
                         " byte(s) short of the next field");
  }
}

std::uint32_t BinaryDecoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BinaryDecoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::int64_t BinaryDecoder::i64() { return static_cast<std::int64_t>(u64()); }

double BinaryDecoder::f64() {
  need(8);
  double v = 0;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::string BinaryDecoder::str() { return std::string(str_view()); }

std::string_view BinaryDecoder::str_view() { return bytes(u32()); }

std::string_view BinaryDecoder::bytes(std::size_t n) {
  need(n);
  const std::string_view s = data_.substr(pos_, n);
  pos_ += n;
  return s;
}

namespace {

constexpr std::uint32_t kNoParentId = 0xFFFFFFFFu;

/// The entity a stored index refers to; an index past the entities
/// decoded so far is a malformed stream, reported like a truncation.
template <typename Entities>
auto& entity_at(const Entities& entities, std::uint32_t index,
                const char* what) {
  if (index >= entities.size()) {
    throw CheckError("model.invalid",
                     std::string(what) + " #" + std::to_string(index),
                     std::string("reference to an undefined ") + what);
  }
  return *entities[index];
}

}  // namespace

void encode_metadata(BinaryEncoder& e, const Metadata& md) {
  e.u32(static_cast<std::uint32_t>(md.metrics().size()));
  for (const auto& m : md.metrics()) {
    e.u32(m->parent() != nullptr
              ? static_cast<std::uint32_t>(m->parent()->index())
              : kNoParentId);
    e.str(m->unique_name());
    e.str(m->display_name());
    e.u32(static_cast<std::uint32_t>(m->unit()));
    e.str(m->description());
  }

  e.u32(static_cast<std::uint32_t>(md.regions().size()));
  for (const auto& r : md.regions()) {
    e.str(r->name());
    e.str(r->module());
    e.i64(r->begin_line());
    e.i64(r->end_line());
    e.str(r->description());
  }

  e.u32(static_cast<std::uint32_t>(md.callsites().size()));
  for (const auto& cs : md.callsites()) {
    e.u32(static_cast<std::uint32_t>(cs->callee().index()));
    e.str(cs->file());
    e.i64(cs->line());
  }

  e.u32(static_cast<std::uint32_t>(md.cnodes().size()));
  for (const auto& c : md.cnodes()) {
    e.u32(c->parent() != nullptr
              ? static_cast<std::uint32_t>(c->parent()->index())
              : kNoParentId);
    e.u32(static_cast<std::uint32_t>(c->callsite().index()));
  }

  e.u32(static_cast<std::uint32_t>(md.machines().size()));
  for (const auto& m : md.machines()) e.str(m->name());
  e.u32(static_cast<std::uint32_t>(md.nodes().size()));
  for (const auto& n : md.nodes()) {
    e.u32(static_cast<std::uint32_t>(n->machine().index()));
    e.str(n->name());
  }
  e.u32(static_cast<std::uint32_t>(md.processes().size()));
  for (const auto& p : md.processes()) {
    e.u32(static_cast<std::uint32_t>(p->node().index()));
    e.str(p->name());
    e.i64(p->rank());
    const auto& coords = p->coords();
    e.u32(coords ? static_cast<std::uint32_t>(coords->size()) : 0);
    if (coords) {
      for (const long c : *coords) e.i64(c);
    }
  }
  e.u32(static_cast<std::uint32_t>(md.threads().size()));
  for (const auto& t : md.threads()) {
    e.u32(static_cast<std::uint32_t>(t->process().index()));
    e.str(t->name());
    e.i64(t->thread_id());
  }
}

std::unique_ptr<Metadata> decode_metadata(BinaryDecoder& d) {
  auto md = std::make_unique<Metadata>();

  const std::uint32_t num_metrics = d.u32();
  for (std::uint32_t i = 0; i < num_metrics; ++i) {
    const std::uint32_t parent = d.u32();
    std::string uniq = d.str();
    std::string disp = d.str();
    const auto unit = static_cast<Unit>(d.u32());
    std::string descr = d.str();
    const Metric* parent_ptr =
        parent == kNoParentId ? nullptr
                              : &entity_at(md->metrics(), parent, "metric");
    md->add_metric(parent_ptr, std::move(uniq), std::move(disp), unit,
                   std::move(descr));
  }

  const std::uint32_t num_regions = d.u32();
  for (std::uint32_t i = 0; i < num_regions; ++i) {
    std::string name = d.str();
    std::string mod = d.str();
    const long begin = static_cast<long>(d.i64());
    const long end = static_cast<long>(d.i64());
    std::string descr = d.str();
    md->add_region(std::move(name), std::move(mod), begin, end,
                   std::move(descr));
  }

  const std::uint32_t num_callsites = d.u32();
  for (std::uint32_t i = 0; i < num_callsites; ++i) {
    const std::uint32_t callee = d.u32();
    std::string file = d.str();
    const long line = static_cast<long>(d.i64());
    md->add_callsite(entity_at(md->regions(), callee, "region"),
                     std::move(file), line);
  }

  const std::uint32_t num_cnodes = d.u32();
  for (std::uint32_t i = 0; i < num_cnodes; ++i) {
    const std::uint32_t parent = d.u32();
    const std::uint32_t csite = d.u32();
    const Cnode* parent_ptr =
        parent == kNoParentId ? nullptr
                              : &entity_at(md->cnodes(), parent, "cnode");
    md->add_cnode(parent_ptr, entity_at(md->callsites(), csite, "call site"));
  }

  const std::uint32_t num_machines = d.u32();
  for (std::uint32_t i = 0; i < num_machines; ++i) {
    md->add_machine(d.str());
  }
  const std::uint32_t num_nodes = d.u32();
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    const std::uint32_t machine = d.u32();
    md->add_node(entity_at(md->machines(), machine, "machine"), d.str());
  }
  const std::uint32_t num_processes = d.u32();
  for (std::uint32_t i = 0; i < num_processes; ++i) {
    const std::uint32_t node = d.u32();
    std::string name = d.str();
    const long rank = static_cast<long>(d.i64());
    Process& p = md->add_process(entity_at(md->nodes(), node, "node"),
                                 std::move(name), rank);
    const std::uint32_t num_coords = d.u32();
    if (num_coords > 0) {
      std::vector<long> coords;
      coords.reserve(
          std::min<std::size_t>(num_coords, d.remaining() / sizeof(long)));
      for (std::uint32_t k = 0; k < num_coords; ++k) {
        coords.push_back(static_cast<long>(d.i64()));
      }
      p.set_coords(std::move(coords));
    }
  }
  const std::uint32_t num_threads = d.u32();
  for (std::uint32_t i = 0; i < num_threads; ++i) {
    const std::uint32_t process = d.u32();
    std::string name = d.str();
    const long tid = static_cast<long>(d.i64());
    md->add_thread(entity_at(md->processes(), process, "process"),
                   std::move(name), tid);
  }

  md->validate();
  return md;
}

}  // namespace cube::detail

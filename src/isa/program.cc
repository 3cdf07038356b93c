#include "program.hh"

#include <bit>
#include <cstring>

#include "common/serialize.hh"
#include "isa/codec.hh"
#include "isa/sparse_memory.hh"

namespace sciq {

void
Program::addDoubles(Addr addr, const std::vector<double> &values)
{
    std::vector<std::uint8_t> bytes(values.size() * 8);
    for (std::size_t i = 0; i < values.size(); ++i) {
        auto raw = std::bit_cast<std::uint64_t>(values[i]);
        std::memcpy(&bytes[i * 8], &raw, 8);
    }
    addData(addr, std::move(bytes));
}

void
Program::addWords(Addr addr, const std::vector<std::uint64_t> &values)
{
    std::vector<std::uint8_t> bytes(values.size() * 8);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::memcpy(&bytes[i * 8], &values[i], 8);
    addData(addr, std::move(bytes));
}

void
Program::load(SparseMemory &mem) const
{
    // Encoded code image, so that tools reading simulated memory see
    // real machine words (the pipeline fetches decoded instructions
    // directly for speed).
    for (std::size_t i = 0; i < code.size(); ++i) {
        std::uint32_t word = encode(code[i]);
        mem.write(pcOf(i), 4, word);
    }
    for (const auto &blob : data)
        mem.writeBlob(blob.addr, blob.bytes.data(), blob.bytes.size());
}

std::uint64_t
Program::checksum() const
{
    serial::Fnv64 h;
    h.update(codeBase);
    h.update(code.size());
    for (const Instruction &inst : code) {
        h.update(static_cast<std::uint64_t>(inst.op));
        h.update(inst.rd);
        h.update(inst.rs1);
        h.update(inst.rs2);
        h.update(static_cast<std::uint64_t>(inst.imm));
    }
    h.update(data.size());
    for (const Blob &blob : data) {
        h.update(blob.addr);
        h.update(blob.bytes.size());
        h.update(serial::hashBytes(blob.bytes.data(), blob.bytes.size()));
    }
    return h.digest();
}

} // namespace sciq

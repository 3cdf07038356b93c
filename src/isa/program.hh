/**
 * @file
 * A loadable SRV program: code at a base address plus initialised data
 * blobs.  The fetch stage indexes code by PC; the loader copies data
 * blobs into simulated memory before execution.
 */

#ifndef SCIQ_ISA_PROGRAM_HH
#define SCIQ_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace sciq {

class SparseMemory;

class Program
{
  public:
    /** Default code base address. */
    static constexpr Addr kDefaultBase = 0x1000;

    explicit Program(Addr base = kDefaultBase) : codeBase(base) {}

    /** Append one instruction; returns its PC. */
    Addr
    append(const Instruction &inst)
    {
        code.push_back(inst);
        return codeBase + (code.size() - 1) * kInstBytes;
    }

    /** Instruction at `pc`, or nullptr if pc is outside the code. */
    const Instruction *
    fetch(Addr pc) const
    {
        if (pc < codeBase || (pc - codeBase) % kInstBytes != 0)
            return nullptr;
        Addr idx = (pc - codeBase) / kInstBytes;
        if (idx >= code.size())
            return nullptr;
        return &code[idx];
    }

    /** True if `pc` addresses an instruction of this program. */
    bool contains(Addr pc) const { return fetch(pc) != nullptr; }

    Addr base() const { return codeBase; }
    Addr entry() const { return codeBase; }
    std::size_t size() const { return code.size(); }
    const std::vector<Instruction> &instructions() const { return code; }

    /** PC of instruction index i. */
    Addr pcOf(std::size_t i) const { return codeBase + i * kInstBytes; }

    /** Register an initialised-data blob to be loaded before running. */
    void
    addData(Addr addr, std::vector<std::uint8_t> bytes)
    {
        data.push_back({addr, std::move(bytes)});
    }

    /** Convenience: lay down an array of doubles. */
    void addDoubles(Addr addr, const std::vector<double> &values);

    /** Convenience: lay down an array of 64-bit integers. */
    void addWords(Addr addr, const std::vector<std::uint64_t> &values);

    /** Copy all data blobs (and the encoded code image) into memory. */
    void load(SparseMemory &mem) const;

    /**
     * Content fingerprint over base address, code and data blobs
     * (FNV-1a over the fields, serial::hashBytes over each blob's
     * bytes).
     * A shared warm state records it, and a restore asserts it is
     * copied into a core of the exact program it was taken from.
     */
    std::uint64_t checksum() const;

    /** Human-readable name (set by the workload registry). */
    std::string name = "program";

  private:
    struct Blob
    {
        Addr addr;
        std::vector<std::uint8_t> bytes;
    };

    Addr codeBase;
    std::vector<Instruction> code;
    std::vector<Blob> data;
};

} // namespace sciq

#endif // SCIQ_ISA_PROGRAM_HH
